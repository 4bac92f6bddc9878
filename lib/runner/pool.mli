(** A fixed-size domain pool with a shared work queue.

    [map] runs a list of independent thunks across OCaml 5 domains and
    returns their outcomes {e in submission order}, regardless of completion
    order — callers that depend on a deterministic result layout (such as
    [Experiment.run_matrix]'s workload-major contract) keep it for free.

    A job that raises is isolated: the exception is caught in the worker,
    the job is retried up to the attempt bound, and a persistent failure is
    surfaced as an [Error] carrying the exception text and backtrace. The
    pool itself never dies and sibling results are never lost.

    With [jobs = 1] (or a single-element input) no domain is spawned and the
    thunks run serially in the calling domain, reproducing serial behaviour
    bit-for-bit. *)

type error = {
  job : int;  (** submission index of the failed job *)
  attempts : int;  (** attempts actually made before giving up *)
  message : string;  (** [Printexc.to_string] of the last exception *)
  backtrace : string;  (** backtrace of the last attempt *)
}

val default_jobs : unit -> int
(** Worker count from the [COBRA_JOBS] knob ({!Cobra_util.Env.jobs}),
    defaulting to [Domain.recommended_domain_count ()]. A value below 1, or
    one that is not an integer, raises [Failure] naming the variable. *)

val map :
  ?jobs:int ->
  ?attempts:int ->
  ?on_start:(int -> unit) ->
  ?on_retry:(int -> attempt:int -> exn -> unit) ->
  ?on_finish:(int -> ok:bool -> unit) ->
  (unit -> 'a) list ->
  ('a, error) result list
(** [map thunks] runs every thunk and returns one outcome per thunk, in
    submission order. [jobs] defaults to {!default_jobs}; [attempts]
    (total tries per job, [>= 1]) defaults to 1. The callbacks fire from
    worker domains — they must be thread-safe; exceptions they raise are
    swallowed so telemetry can never kill the pool. *)
