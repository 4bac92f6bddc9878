(** The fidelity oracle: replays {!Pattern} streams through {!Target}
    pipelines and judges the measured accuracy-vs-level series against the
    target's declared analytical response.

    This is semantics-vs-theory checking — the complement of the
    conformance kit's impl-vs-reimpl lockstep: a predictor that faithfully
    implements the {e wrong} geometry passes lockstep but fails here. *)

val collapse_threshold : float
(** 0.90 — accuracy below this counts as a collapsed (post-capacity)
    level; the falling-edge detector. *)

type measurement = {
  m_level : int;
  m_samples : int;  (** post-warmup, metric-PC-filtered predictions *)
  m_misses : int;
  m_accuracy : float;
  m_model : float option;  (** expected accuracy when the model is exact *)
}

type verdict = Pass | Fail of string | Info

type result = {
  r_target : string;
  r_family : string;
  r_probe : string;
  r_unit : string;
  r_expect : Target.expect;
  r_series : measurement list;
  r_verdict : verdict;
}

type report = {
  rep_seed : int;
  rep_elapsed_s : float;
  rep_results : result list;
}

val measure :
  ?deadline:float ->
  target:Target.t ->
  probe:Pattern.t ->
  level:int ->
  seed:int ->
  unit ->
  measurement
(** One point: fresh pipeline, one probe stream, post-warmup metric.
    [deadline] is {!Cobra_trace_replay.Replay.drive}'s: an absolute
    [Unix.gettimeofday] time past which the replay raises
    [Replay.Timeout]. *)

val grid : probe_name:string -> Target.expect -> int list
(** The level grid the oracle sweeps for an expectation (brackets a
    predicted edge; fixed characteristic grids for informational pairs). *)

val run_pair :
  ?deadline:float -> target:Target.t -> probe:Pattern.t -> seed:int -> unit -> result

val run_matrix :
  ?deadline:float ->
  ?targets:Target.t list ->
  ?probes:Pattern.t list ->
  seed:int ->
  unit ->
  report
(** Default: every catalogued probe over every non-demo target. Every
    measurement checks [deadline] ({!measure}), so a matrix that overruns
    it raises [Cobra_trace_replay.Replay.Timeout]. *)

val failures : report -> result list

val result_fields : result -> (string * Cobra_stats.Json.t) list
(** One pair's entry in {!report_json}'s ["results"]: target, family,
    probe, unit, expected response, measured series and verdict. *)

val report_json : report -> Cobra_stats.Json.t
(** Schema [cobra-probe-report/1]. *)

val report_csv : report -> string
(** One row per (target, probe, level) measurement. *)

val render : report -> string
(** Human-readable per-pair series + verdict summary. *)

val timing_series :
  target:Target.t ->
  probe:Pattern.t ->
  level:int ->
  seed:int ->
  unit ->
  Cobra_stats.Json.t
(** Schema [cobra-probe-timing/1]: the probe replay bucketed through
    {!Cobra_stats.Interval} in 128-instruction buckets under a synthetic
    timing model (1 cycle per instruction + 20 per mispredict), plus a log2
    histogram of distances between consecutive mispredicts. *)
