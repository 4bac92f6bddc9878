(** Adversarial microbenchmark branch patterns.

    Each probe is a parameterized generator of a deterministic (per-seed)
    branch stream engineered so an ideal predictor of declared geometry has
    an analytically known response — the expected-response models live in
    {!Oracle}. Streams are plain {!Cobra_trace_replay.Btrace} records, so
    every probe is simultaneously a fidelity stimulus, an exportable trace
    workload and a [cobra serve] sweep input. *)

type stream = {
  s_records : Cobra_trace_replay.Btrace.record array;
  s_warmup : int;  (** records before measurement starts *)
  s_metric_pc : int option;
      (** when set, only branches at this PC count toward the metric *)
}

type t = {
  p_name : string;
  p_doc : string;
  p_unit : string;  (** what a level means: order / distance / period / sites... *)
  p_gen : level:int -> seed:int -> stream;
}

val all : t list
(** ladder, corr, loop, phase, alias, tag. *)

val names : string list

val find : string -> (t, string) result
(** Case-insensitive; the error message lists the valid probe names. *)

val find_exn : string -> t
(** [Failure] with the same name-listing message. *)

val digest : stream -> string
(** MD5 hex of the stream's binary encoding — the replayability witness
    (same probe, level and seed give the identical digest). *)

val to_trace_file :
  ?format:Cobra_trace_replay.Btrace.format -> path:string -> stream -> unit

val source : stream -> Cobra_trace_replay.Replay.source
(** A fresh source over the records ({!Cobra_trace_replay.Replay.of_records}),
    for {!Cobra_trace_replay.Replay.drive}. *)

(**/**)

val alias_site_pc : int -> int
val alias_site_bias : int -> bool
(** Exposed for the oracle's exact aliasing model: the alias probe's site
    [i] PC and fixed bias. *)
