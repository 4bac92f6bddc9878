(** Core configuration (paper Table II) plus experiment toggles.

    Each host-core choice the paper's discussion flips is one field:
    [serialize_fetch] (Section I), [history_divergence] (VI-B) and
    [sfb_optimization] (VI-C). The frontend's geometry is not here: the
    core takes its fetch width from the predictor pipeline it drives
    ({!Cobra.Pipeline.config}), as BOOM's frontend takes it from the one
    core parameter set. The return-address stack (16 entries), the
    wrong-path fetch throttle (16 packets) and the short-forward-branch
    reach (32 bytes, {!Cobra_isa.Trace.is_short_forward_branch}) are
    constants. *)

(** What the frontend does when a later predictor stage revises a packet's
    speculative history bits without moving its PC (Section VI-B). *)
type history_divergence =
  | Ignore
      (** no management: the history register keeps the earlier stage's
          bits, and each packet fires with its Fetch-1 bits in place
          ([Pipeline.fire ~correct:false]: no predecode correction) — the
          VI-B ablation's worst case *)
  | Repair  (** repair the history register; in-flight predictions stand *)
  | Replay  (** repair, then replay fetch with the corrected history *)

type t = {
  fetch_buffer : int;  (** fetch-buffer capacity in instructions *)
  (* backend *)
  decode_width : int;
  commit_width : int;
  rob_entries : int;
  int_alus : int;
  mem_ports : int;
  fp_units : int;
  (* experiment toggles *)
  history_divergence : history_divergence;
  ras_repair : bool;
      (** checkpoint the return-address stack per packet and restore it on
          flushes (Skadron et al.-style repair; the host-core improvement
          the paper leaves to BOOM) *)
  serialize_fetch : bool;
      (** Section I: end every fetch packet at the first branch *)
  sfb_optimization : bool;
      (** Section VI-C: predicate short forward branches — the core reads
          its workload stream through {!Sfb.transform} *)
}

val default : t
(** The paper's 4-wide BOOM: 4-wide decode/commit, 32-entry fetch buffer,
    128-entry ROB, 4 ALU + 2 MEM + 2 FP pipes, history replay on. *)

val spec : t -> string
(** A stable one-line rendering of every field, used to key the on-disk
    result cache — any field change changes the spec. *)

val rows : t -> (string * string) list
(** Table II-style description rows. The frontend row gives the default
    pipeline's fetch width ({!Cobra.Pipeline.default_config}). *)
