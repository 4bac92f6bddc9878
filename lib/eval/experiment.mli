(** Experiment runner: a design x workload x core-configuration grid.

    Each run elaborates a fresh pipeline (untrained components) and a fresh
    core, so results are independent and deterministic. Grids ([run_jobs],
    [run_matrix]) are executed through {!Cobra_runner}: in parallel across
    [COBRA_JOBS] domains, consulting the on-disk result cache (disable with
    [COBRA_CACHE=0]), with per-job retry and failure isolation.
    [COBRA_JOBS=1] reproduces the serial harness bit-for-bit. The knobs
    this module reads itself are [COBRA_INSNS], [COBRA_STATS] and
    [COBRA_STATS_DIR] ({!Cobra_util.Env}). *)

type result = {
  design : string;
  workload : string;
  perf : Cobra_uarch.Perf.t;
}

val default_insns : unit -> int
(** Instructions per run; override with the [COBRA_INSNS] knob
    ({!Cobra_util.Env.insns}; the bench harness honours it). Read per
    call, so tests can set and unset the variable; a set-but-malformed or
    non-positive value raises [Failure] naming the variable — it never
    silently falls back to the default. *)

val run :
  ?insns:int ->
  ?config:Cobra_uarch.Config.t ->
  Designs.t ->
  Cobra_workloads.Suite.entry ->
  result
(** A single run in the calling domain, bypassing pool and cache. When
    [COBRA_STATS] is enabled, a {!Cobra_stats.Collector} rides along and
    the report is exported to [COBRA_STATS_DIR] as JSON + CSV; a directory
    that cannot be made or written raises [Failure] naming it, so the run
    stops rather than losing its report. In a grid ({!run_jobs}) each job
    hands its report to the runner with its counters, and the runner
    announces it as a [stats] event. The report keeps the 20 hardest
    branches and samples the interval series every 1000 instructions.
    With stats disabled no collection machinery is elaborated.

    The pipeline is the design's own ([Designs.t]'s [pipeline_config]);
    the core configuration is the only per-run choice. The export is named
    [<design>__<workload>] at the core's defaults; otherwise
    [<design>__<workload>__<variant>], where the variant lists the core
    configuration fields that differ from the defaults, so runs that
    differ only there do not overwrite each other's reports. *)

val run_with_stats :
  ?insns:int ->
  ?config:Cobra_uarch.Config.t ->
  Designs.t ->
  Cobra_workloads.Suite.entry ->
  result * Cobra_stats.Report.t
(** Like {!run} but always collects statistics (regardless of
    [COBRA_STATS]) and returns the report instead of exporting it — the
    entry point for tests and the [cobra stats] CLI. *)

type job
(** One grid cell: a design/workload pair plus its configuration, ready to
    be dispatched to the runner. *)

val job :
  ?insns:int ->
  ?config:Cobra_uarch.Config.t ->
  Designs.t ->
  Cobra_workloads.Suite.entry ->
  job
(** The job's cache key covers the design's topology and pipeline
    configuration, the workload, the core configuration and the
    instruction budget. *)

type 'a grid
(** Jobs to run together, and the value to build from their results: a
    table's rows, a pair of runs to compare. Each cell gets its own result,
    whatever the grid's shape. *)

val cell : job -> result grid
val map : ('a -> 'b) -> 'a grid -> 'b grid

val pair : 'a grid -> 'b grid -> ('a * 'b) grid
(** [a]'s jobs, then [b]'s. *)

val all : 'a grid list -> 'a list grid
(** The grids' jobs one after another. *)

val run_jobs : ?label:string -> 'a grid -> 'a
(** Run a grid's jobs through the pool + cache, in submission order, and
    build its value. A job that keeps raising after its retry budget does
    not abort the rest of the grid; once the whole grid has run, the first
    failed job raises [Failure] naming the design, workload and
    exception. *)

val run_with_stats_all :
  ?label:string ->
  ?insns:int ->
  Designs.t list ->
  Cobra_workloads.Suite.entry ->
  (result * Cobra_stats.Report.t) list
(** {!run_with_stats} for each design, in order, through the pool
    ({!Cobra_runner.run_uncached}: [COBRA_JOBS] workers, telemetry under
    [label]). The reports are not cached. Fails like {!run_jobs}. *)

val run_matrix :
  ?insns:int ->
  ?config:Cobra_uarch.Config.t ->
  Designs.t list ->
  Cobra_workloads.Suite.entry list ->
  result list
(** Results grouped workload-major (all designs for workload 1, then
    workload 2, ...) — the order is deterministic regardless of worker
    count. *)

val find_opt : result list -> design:string -> workload:string -> result option

val find : result list -> design:string -> workload:string -> result
(** Raises [Failure] naming the missing design/workload pair and the
    results actually present. *)
