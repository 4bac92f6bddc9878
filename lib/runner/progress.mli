(** Telemetry sink for runner jobs.

    A [Progress.t] collects timestamped job events coming concurrently from
    worker domains (all entry points are mutex-guarded), maintains the
    done/hit/failure counters, renders a live
    [\[label done/total, hits, failures, ETA\]] line to stderr, and can
    mirror every event as a JSON line to a file for later analysis.

    Live rendering defaults to "stderr is a tty"; [COBRA_PROGRESS] forces
    it on ([1]/[true]/[yes]/[on]) or off ([0]/[false]/[no]/[off]), and any
    other value raises [Failure] ({!Cobra_util.Env.progress}). The events
    file defaults to the [COBRA_EVENTS] knob, when set; one that cannot be
    opened raises [Failure] naming the path and the system error, rather
    than dropping the telemetry silently.

    JSON-lines schema (one {!Cobra_stats.Json} object per line):
    [{"ts": <unix-seconds>, "label": "...", "event":
      "start"|"cache_hit"|"retry"|"finish"|"stats"|"summary", ...}] with
    ["job"] and ["key"] on start/cache_hit, ["job"], ["attempt"] and
    ["error"] on retry, ["job"], ["ok"], ["cached"], ["elapsed"] on finish,
    ["design"], ["workload"], ["summary"] on stats, ["job"], ["key"] and
    ["error"] on store_error, and the final counters plus ["elapsed"] and
    ["rate"] on the summary line written by {!finish}. *)

type t

type event =
  | Start of { job : int; key : string }
  | Cache_hit of { job : int; key : string }
  | Retry of { job : int; attempt : int; message : string }
  | Finish of { job : int; ok : bool; cached : bool; elapsed : float }
  | Stats of { design : string; workload : string; summary : string }
      (** out-of-band statistics report announcement (no counter changes);
          mirrored to the events file as an ["event": "stats"] line *)
  | Store_error of { job : int; key : string; message : string }
      (** a result-cache write failed; the job itself still succeeded, but a
          dead cache means every future run recomputes — surfaced in the
          status line and counted so it cannot pass silently *)

val create : ?label:string -> ?events_path:string -> ?live:bool -> total:int -> unit -> t
val emit : t -> event -> unit

val jobs_done : t -> int
val hits : t -> int
val failures : t -> int
val retries : t -> int
val store_errors : t -> int

val total_store_errors : unit -> int
(** Process-wide store-error count summed across every sink ever created —
    the basis of [cobra sweep]'s non-zero exit when the result cache went
    silently dead mid-run. *)

val status_line : t -> string
(** The live one-line rendering. Every derived figure (rate, ETA) is
    division-guarded: zero-job grids, a first event at elapsed ~ 0 and
    clock skew all yield finite values, never [nan]/[inf]. *)

val finish : t -> unit
(** Render the final line (newline-terminated), append an
    ["event": "summary"] JSON line (totals, elapsed, rate — all divisions
    guarded so degenerate grids yield finite values) and close the events
    file. Idempotent. *)
