(** Parallel, cache-aware, fault-tolerant experiment orchestration.

    The evaluation layers ([Experiment], [Sweeps], [Ablations], the bench
    harness, [cobra sweep]) submit grids of independent simulations here
    instead of running them serially. Three cooperating pieces:

    - {!Pool} — a fixed-size domain pool with per-job exception isolation,
      bounded retries and deterministic (submission-order) results;
    - {!Cache} — a content-addressed on-disk cache of [Perf.t] results
      under [_cobra_cache/];
    - {!Progress} — a telemetry sink: live stderr status line plus optional
      JSON-lines event log.

    Environment knobs ({!Cobra_util.Env}): [COBRA_JOBS] (worker count;
    [1] reproduces serial behaviour bit-for-bit), [COBRA_CACHE=0] (disable
    the result cache), [COBRA_CACHE_DIR], [COBRA_EVENTS] (JSON-lines sink
    path), [COBRA_PROGRESS] (force the live line on/off). *)

module Pool = Pool
module Cache = Cache
module Progress = Progress

type error = Pool.error = {
  job : int;
  attempts : int;
  message : string;
  backtrace : string;
}

val pp_error : Format.formatter -> error -> unit

type job = {
  key : string list;
      (** cache spec: everything the result depends on (topology spec,
          workload, configs, insn count, ...) *)
  run : unit -> Cobra_uarch.Perf.t * Cobra_stats.Report.t option;
      (** must elaborate all mutable state (pipeline, core, stream) itself,
          so that a retry restarts clean and parallel jobs share nothing.
          Returns the counters and, when the run collected one, its
          statistics report, which {!run_perfs} announces as a [stats]
          event; only the counters are cached *)
}

val run_perfs :
  ?label:string -> ?progress:Progress.t -> job list -> (Cobra_uarch.Perf.t, error) result list
(** Run a grid of jobs through the pool ({!Pool.default_jobs} workers),
    consulting and populating the cache around each one, and emitting
    telemetry: a job that returns a report has it announced as a [stats]
    event between its [start] and [finish]. With [COBRA_STATS] on, the
    cache is populated but not consulted: every job runs, and so exports
    its report. A job that raises is retried once. Results come back in
    submission order. When [progress] is supplied the caller owns it (and
    its [finish]); otherwise one is created per call. *)

val run_uncached : ?label:string -> (unit -> 'a) list -> ('a, error) result list
(** Run jobs whose results are not cached (statistics reports, say) through
    the pool, with {!run_perfs}'s workers, retry and telemetry: one start
    and one finish event per job under [label], whose start events carry an
    empty key, and the summary line. Results come back in submission
    order. *)
