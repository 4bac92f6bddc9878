(** The differential conformance driver.

    Replays {!Fuzz} streams through golden models ({!Golden}), real
    components and composed {!Cobra.Pipeline}s, demanding exact equivalence
    where the semantics require it (predictions, metadata bits, storage
    accounting) and metamorphic invariants elsewhere (repair restores
    pre-speculation state; squashed excursions leave no trace).

    Every fuzz-driven check below is one body of a single fuzz driver. The
    driver runs each shape of [shapes] (default: all of
    {!Fuzz.all_shapes}, including the probe-derived ladder / alias-stress /
    loop-scan) from fresh state, [length] packets or branches per shape,
    and moves one cursor along them. The fuzz streams are pure functions of
    the seed, and no state crosses from one shape to the next, so a failure
    replays from the seed and its one shape. Any mismatch, and any
    exception a component or golden model raises, fails the check with one
    line:

    {v shape=S <packet|branch>=i/n seed=N: <what> (replay: cobra conform --seed N --shape S --length L) v}

    and the other checks still run. [length] is required: callers size
    their streams; {!run_all} keeps the one default, 300. *)

type verdict = {
  v_check : string;  (** lockstep / live_slots / storage / replay / repair / ... *)
  v_subject : string;  (** component or design under test *)
  v_pass : bool;
  v_detail : string;  (** "ok (...)" or a replayable failure description *)
}

val lockstep : length:int -> ?shapes:Fuzz.shape list -> seed:int -> Golden.packed -> verdict
(** Drive the golden model and the real component through identical
    {!Fuzz.packets} scripts: predictions and metadata must be bit-identical
    at each step, metadata must have the declared width, and the model's
    structural invariant must hold throughout. *)

val live_slots : length:int -> ?shapes:Fuzz.shape list -> seed:int -> Golden.packed -> verdict
(** Metamorphic check of the [live_slots] half of the context contract on
    the real component, along the same {!Fuzz.packets} scripts: before each
    packet's events, predicting with [live_slots = k] (every [k] in
    [1..fetch_width]) on the unchanged state must give the all-live
    predict's opinions and metadata slot words on slots [< k]; on slots
    [>= k] it must either skip (no opinion, a zero slot word) or agree with
    the all-live predict. *)

val compose :
  length:int ->
  ?shapes:Fuzz.shape list ->
  seed:int ->
  name:string ->
  fetch_width:int ->
  (unit -> Cobra.Topology.t) ->
  verdict
(** The shared topology evaluator against its reference: a
    [Cobra.Composer] of a fresh topology per shape is evaluated on every
    {!Fuzz.packets} context, and its per-stage composites must equal
    {!Golden.compose}'s over the same context and component state; the
    packet's events then train the topology's components with the
    composer's metadata. [name] is the verdict's subject. Both engines run
    this evaluator, so the compiled-vs-interpreted checks cannot catch its
    bugs. *)

val storage_accounting : Golden.packed -> verdict
(** The real component's [Storage.total_bits] must equal the textbook
    formula recomputed independently in {!Golden}. *)

val replay_twin :
  length:int -> ?shapes:Fuzz.shape list -> seed:int -> Cobra_eval.Designs.t -> verdict
(** The end-to-end twin differential: each fuzz branch stream is run
    through [Cobra_trace_replay.Replay.drive] on the design, and its
    {!Golden.twin_design} steps ([Cobra_trace_replay.Replay.Sim.step]) in
    lockstep from the driver's [observe] hook; both must agree on every
    per-branch [(taken_pred, wrong)] decision, and the driver's branch and
    mispredict totals must match the observed ones. *)

val repair_restore :
  length:int -> ?shapes:Fuzz.shape list -> seed:int -> Cobra_eval.Designs.t -> verdict
(** Metamorphic check: a pipeline subjected to speculative excursions
    (wrong-path packets that are squashed, and fired wrong-path packets
    unwound by the mispredict repair walk) must make the same per-branch
    [(taken_pred, wrong)] decisions, by [Sim.step]'s replay rule, as an
    undisturbed pipeline fed the same committed branch stream. *)

val snapshot_roundtrip :
  length:int -> ?shapes:Fuzz.shape list -> seed:int -> Cobra_eval.Designs.t -> verdict
(** Flat-state certification: half-way through each stream the design's
    whole-pipeline snapshot is restored into a fresh pipeline, and both
    must make bit-identical decisions over the rest of the stream — and
    end with bit-identical snapshots. *)

val compiled_twin :
  length:int -> ?shapes:Fuzz.shape list -> seed:int -> Cobra_eval.Designs.t -> verdict
(** The staged topology compiler's merge gate: a compiled engine
    ([Cobra_compile.Engine]) and an interpreted pipeline of the same design
    replay identical fuzz streams and must agree bit-for-bit on every
    per-branch [(taken_pred, wrong)] decision, every component's metadata
    word, and the final snapshot slab. *)

val compiled_zoo :
  length:int -> ?shapes:Fuzz.shape list -> seed:int -> Golden.packed -> verdict
(** {!compiled_twin} over a single-component topology built from one zoo
    entry, so every component certifies its compiled kernel in isolation
    (selectors arbitrate two static leaves, keeping their incoming
    predictions real). *)

val table1_pins : unit -> verdict list
(** Regression pins of the paper's Table-I storage accounting for the three
    reference designs: exact [Storage.total_bits] and the rounded
    direction-state KB figures. *)

val run_all : ?length:int -> ?shapes:Fuzz.shape list -> seed:int -> unit -> verdict list
(** Everything above, every fuzz-driven check over every shape of [shapes]
    at [length] (default 300): per-component lockstep + storage and
    {!live_slots} over {!Golden.zoo}, {!compose} over [Designs.named], the
    replay-vs-golden-twin differential over [Designs.named],
    repair-restores-state over [Designs.all], snapshot round-trips, the
    compiled-engine differentials ({!compiled_zoo} over the whole zoo and
    {!compiled_twin} over [Designs.named]), and the Table-I pins. *)

val failures : verdict list -> verdict list

val render : verdict list -> string
(** Per-component verdict table for the [cobra conform] CLI verb. *)

val counterexample : verdict list -> string option
(** Replayable failure report (one block per failed verdict), or [None]
    when everything passed — the artifact CI uploads on failure. *)
