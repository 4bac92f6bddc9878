(** Predictor-only trace replay — the fast path of the trace frontend.

    Drives a composed design (any [Topology.spec]) through the
    predict/fire/resolve/commit contract one retired branch at a time,
    without instantiating the uarch core model: no scoreboard, no wrong-path
    fetch, no cycle accounting. This is the standard ChampSim/CBP
    predict/update replay idiom: one {!Sim.step} per branch behind one
    simulator interface, and one loop, {!drive}, around it. The software
    model ({!Software_model}) and the conformance kit call this driver and
    its simulator rather than mirroring them, so for a trace exported from
    a workload the mispredict counters — and hence MPKI — are bit-identical
    to driving the full pipeline composer over the original stream, while
    running an order of magnitude faster than the uarch model (pinned in
    BENCH_PR6.json).

    The loop allocates O(1) state up front (one reusable slot vector) and
    streams records from the source, so a multi-million-branch trace
    replays in constant memory. *)

type source = unit -> Btrace.record option

type result = {
  design : string;
  trace : string;
  instructions : int;  (** instructions represented: sum of [gap + 1] *)
  branches : int;
  cond_branches : int;
  mispredicts : int;  (** wrong direction, or wrong target on a taken
                          non-return unconditional with a known target *)
  cond_mispredicts : int;
  elapsed_s : float;  (** wall-clock of the replay loop *)
}

exception Timeout of { branches : int; deadline_s : float }
(** Raised from {!drive} when a [deadline] passes mid-replay — the per-request
    isolation mechanism of [cobra serve]. *)

val mpki : result -> float
(** Mispredicts per kilo-instruction represented by the trace. *)

val accuracy : result -> float
val branches_per_sec : result -> float
val insns_per_sec : result -> float

val to_perf : result -> Cobra_uarch.Perf.t
(** The replay counters as a [Perf.t] (cycle counters zero — replay has no
    timing model), which is what lets the runner's content-addressed result
    cache store replay points unchanged. *)

val summary : result -> string
(** One human-readable line. *)

(** {1 Simulators}

    The staged topology compiler ([Cobra_compile]) specializes a design
    into a fused per-branch kernel. Counters, per-branch decisions,
    metadata and snapshot slabs of the compiled engine are bit-identical to
    the interpreted pipeline's — certified by the [compiled_twin]
    conformance checks — so every caller may pick the engine freely per
    [engine_kind]. *)

type engine_kind = [ `Interpreted | `Compiled ]

val engine_name : engine_kind -> string
val engine_of_string : string -> engine_kind
(** Raises [Invalid_argument] on anything but ["interpreted"]/["compiled"]. *)

val compiled : Cobra_eval.Designs.t -> Cobra_compile.Engine.t
(** Compile a fresh engine for the design (topology elaborated anew, like
    {!Cobra_eval.Designs.pipeline} elaborates a fresh pipeline). *)

(** One replay simulator: an interpreted {!Cobra.Pipeline} or a compiled
    {!Cobra_compile.Engine}. *)
module Sim : sig
  type t

  val of_pipeline : Cobra.Pipeline.t -> t
  (** The interpreted simulator over a pipeline the caller may also
      observe (e.g. with a [Cobra_stats.Collector]). *)

  val of_engine : Cobra_compile.Engine.t -> t

  val create : engine_kind -> Cobra_eval.Designs.t -> t
  (** A fresh simulator of the design on the chosen engine. *)

  val step : t -> Btrace.record -> bool
  (** The replay protocol's per-record transaction: predict the branch
      (one branch per packet, final-stage decision), fire, resolve or
      mispredict against the recorded outcome, then commit at once.
      Returns whether the prediction was wrong: the wrong direction, or a
      wrong target on a taken non-return unconditional whose target the
      trace knows. *)

  val last_taken_pred : t -> bool
  (** Predicted direction of the most recent {!step}. *)

  val metas : t -> Cobra_util.Bits.t array
  (** Metadata words of the most recent {!step}, indexed by component id.
      Valid until the next {!step}. *)

  val snapshot : t -> Cobra_util.Slab.t
  (** Whole-design snapshot in the [Pipeline.snapshot] layout, which both
      engines share: slabs interchange between the engines of one design.
      Raises [Invalid_argument] on an interpreted pipeline that is not
      quiesced. *)

  val restore : t -> Cobra_util.Slab.t -> unit
  (** Raises [Invalid_argument] on a cell-count mismatch. *)
end

val drive :
  ?max_branches:int ->
  ?max_insns:int ->
  ?deadline:float ->
  ?observe:(Btrace.record -> taken_pred:bool -> wrong:bool -> unit) ->
  ?progress:(branches:int -> insns:int -> unit) ->
  ?progress_every:int ->
  design:string ->
  trace:string ->
  Sim.t ->
  source ->
  result
(** Replay [source] through the simulator, one {!Sim.step} per record.
    [max_branches] is checked before a record is read, so a capped replay
    leaves the source exactly on the boundary record. [max_insns] stops
    before the first record that would overflow it, which means it has to
    read that record: checkpoints cap on branches, not instructions.
    [deadline] is an absolute [Unix.gettimeofday] time checked every 2048
    branches; [observe] fires per branch after its step, with the
    final-stage direction decision and whether it was wrong; [progress]
    fires every [progress_every] branches (default 262144). [design] and
    [trace] are labels carried into the result. *)

(** {1 Checkpoints}

    A replay loop is quiesced between any two records (every branch fires,
    resolves and commits immediately), so the whole design checkpoints into
    one flat slab at any record boundary; together with the reader's byte
    offset that is enough to resume the replay mid-trace on any identically
    configured simulator of either engine — the warm-state reuse behind
    [cobra serve] sweeps. *)

type checkpoint = {
  ck_slab : Cobra_util.Slab.t;  (** {!Sim.snapshot} of the design *)
  ck_offset : int;  (** {!Reader.offset} at the boundary *)
  ck_branches : int;  (** branches replayed up to the boundary *)
  ck_insns : int;  (** instructions represented up to the boundary *)
}

val checkpoint : Sim.t -> Reader.t -> branches:int -> insns:int -> checkpoint
(** Capture the current simulator state and stream position.
    [branches]/[insns] are carried as labels. *)

val warmup :
  ?deadline:float ->
  branches:int ->
  design:string ->
  trace:string ->
  Sim.t ->
  Reader.t ->
  checkpoint * result
(** Replay exactly [branches] records (fewer at end of trace) and
    checkpoint the boundary. *)

val restore : Sim.t -> Reader.t -> checkpoint -> unit
(** Overwrite the simulator state from the checkpoint's slab (one memcpy
    per region) and seek the reader back to the boundary. *)

val counters_equal : result -> result -> bool
(** All five counters equal (wall-clock ignored) — the bit-identity
    predicate used by the snapshot verification paths. *)

val run_design :
  ?max_branches:int ->
  ?max_insns:int ->
  ?deadline:float ->
  ?buffer_size:int ->
  ?engine:engine_kind ->
  Cobra_eval.Designs.t ->
  path:string ->
  result
(** Elaborate a fresh simulator for the design ([engine] defaults to
    [`Interpreted]) and stream the trace file at [path] through it
    ({!Reader} errors propagate). *)

val run_design_with_stats :
  ?max_branches:int ->
  ?max_insns:int ->
  ?deadline:float ->
  ?buffer_size:int ->
  ?top:int ->
  Cobra_eval.Designs.t ->
  path:string ->
  result * Cobra_stats.Report.t
(** Like {!run_design} with a [Cobra_stats.Collector] attached to an
    interpreted pipeline: the report carries per-component mispredict
    attribution, arbitration tallies, hard-branch tables and the interval
    MPKI series (interval cycle counts are zero — replay has no timing
    model). *)

(** {1 Kept for the benchmark}

    The benchmark under [perfbench/] calls these names; each is {!drive},
    {!warmup} or {!restore} on the matching simulator. *)

val run :
  ?max_branches:int ->
  ?max_insns:int ->
  ?deadline:float ->
  ?observe:(Btrace.record -> taken_pred:bool -> wrong:bool -> unit) ->
  ?progress:(branches:int -> insns:int -> unit) ->
  ?progress_every:int ->
  design:string ->
  trace:string ->
  Cobra.Pipeline.t ->
  source ->
  result
(** {!drive} on [Sim.of_pipeline]. *)

val run_compiled :
  ?max_branches:int ->
  ?max_insns:int ->
  ?deadline:float ->
  ?observe:(Btrace.record -> taken_pred:bool -> wrong:bool -> unit) ->
  ?progress:(branches:int -> insns:int -> unit) ->
  ?progress_every:int ->
  design:string ->
  trace:string ->
  Cobra_compile.Engine.t ->
  source ->
  result
(** {!drive} on [Sim.of_engine]. *)

val warmup_compiled :
  ?deadline:float ->
  branches:int ->
  design:string ->
  trace:string ->
  Cobra_compile.Engine.t ->
  Reader.t ->
  checkpoint * result
(** {!warmup} on [Sim.of_engine]. *)

val restore_compiled : Cobra_compile.Engine.t -> Reader.t -> checkpoint -> unit
(** {!restore} on [Sim.of_engine]. *)
