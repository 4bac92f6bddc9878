(** Content-addressed on-disk cache of simulation results.

    Entries live under {!dir} (default [_cobra_cache/], overridable with
    [COBRA_CACHE_DIR]), one file per result, named by the hex digest of the
    job's spec — a list of strings describing everything the result depends
    on (design topology spec, workload name, core config, pipeline config,
    instruction count). The cache-format version participates in the digest,
    so a serializer change silently invalidates old entries instead of
    misreading them.

    Reads are corruption-tolerant: a missing, truncated, garbled or
    wrong-checksum entry is treated as a miss (and will be rewritten by the
    caller after recomputing), never a crash. Writes go through a temporary
    file and an atomic rename, so concurrent writers and killed runs cannot
    leave a torn entry behind.

    Set [COBRA_CACHE=0] to disable the cache entirely. *)

type key

val enabled : unit -> bool
(** The [COBRA_CACHE] knob ({!Cobra_util.Env.bool_var}), on by default:
    [0]/[false]/[no]/[off] disable the cache; any unrecognised value raises
    [Failure]. *)

val dir : unit -> string
(** [COBRA_CACHE_DIR] or ["_cobra_cache"]. *)

val key : string list -> key
(** Digest a job spec. Every part participates; changing any part (insn
    count, a config field, the topology spec, ...) changes the key. *)

val hex : key -> string
val path : key -> string
(** On-disk location of the entry for [key] (inside {!dir}). *)

val load : key -> Cobra_uarch.Perf.t option
(** [None] on miss or on any unreadable/corrupt entry. *)

val store : key -> Cobra_uarch.Perf.t -> (unit, string) result
(** Atomically (re)write the entry; creates {!dir} on demand. IO failures
    (read-only filesystem, disk full) are reported as [Error message] — the
    cache is an optimisation, so callers keep going, but a silently dead
    cache hides a recompute-everything slowdown, so the failure must reach
    the runner's telemetry rather than vanish. Each store also sweeps
    orphaned [.tmp.*] files (from writers killed mid-store) older than an
    hour out of {!dir}. *)
