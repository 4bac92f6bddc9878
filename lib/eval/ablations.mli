(** The paper's discussion experiments (Sections I and VI) as runnable
    ablations. Each returns the paper's claim, our measured headline and a
    full report. *)

type outcome = {
  id : string;  (** experiment id used in DESIGN.md/EXPERIMENTS.md *)
  paper_claim : string;
  measured : string;  (** one-line measured headline *)
  report : string;  (** full table *)
}

val tage_latency : ?insns:int -> unit -> outcome
(** VI-A: 2-cycle vs 3-cycle TAGE — the 2-cycle variant fails the timing
    model; delaying the response should leave accuracy unchanged and cost
    only a little IPC. *)

val history_repair : ?insns:int -> unit -> outcome
(** VI-B: repair-only vs repair+replay of the speculative global history. *)

val short_forward_branch : ?insns:int -> unit -> outcome
(** VI-C: hammock predication on the CoreMark-like kernel. *)

val serialized_fetch : ?insns:int -> unit -> outcome
(** Section I: fetch serialised behind branches, on Dhrystone. *)
