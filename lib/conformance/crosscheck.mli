(** The differential conformance driver.

    Replays {!Fuzz} streams through golden models ({!Golden}), real
    components and composed {!Cobra.Pipeline}s, demanding exact equivalence
    where the semantics require it (predictions, metadata bits, storage
    accounting) and metamorphic invariants elsewhere (repair restores
    pre-speculation state; squashed excursions leave no trace). Every
    verdict that fails carries a replayable description: the fuzz streams
    are pure functions of the seed, so one integer reproduces the run. A
    component or golden model that raises fails the check it raised in,
    naming the shape, packet, seed and exception, and the other checks
    still run. *)

type verdict = {
  v_check : string;  (** lockstep / live_slots / storage / replay / repair / ... *)
  v_subject : string;  (** component or design under test *)
  v_pass : bool;
  v_detail : string;  (** "ok (...)" or a replayable failure description *)
}

val lockstep : ?length:int -> ?shapes:Fuzz.shape list -> seed:int -> Golden.packed -> verdict
(** Drive the golden model and the real component through identical
    {!Fuzz.packets} scripts across every shape (or just [shapes] when
    given): predictions and metadata must be bit-identical at each step,
    metadata must have the declared width, and the model's structural
    invariant must hold throughout. *)

val live_slots : ?length:int -> ?shapes:Fuzz.shape list -> seed:int -> Golden.packed -> verdict
(** Metamorphic check of the [live_slots] half of the context contract on
    the real component, along the same {!Fuzz.packets} scripts: before each
    packet's events, predicting with [live_slots = k] (every [k] in
    [1..fetch_width]) on the unchanged state must give the all-live
    predict's opinions and metadata slot words on slots [< k]; on slots
    [>= k] it must either skip (no opinion, a zero slot word) or agree with
    the all-live predict. *)

val compose :
  ?length:int ->
  ?shapes:Fuzz.shape list ->
  seed:int ->
  name:string ->
  fetch_width:int ->
  Cobra.Topology.t ->
  verdict
(** The shared topology evaluator against its reference: a
    [Cobra.Composer] of [topo] is evaluated on every {!Fuzz.packets}
    context across every shape (or just [shapes]), and its per-stage
    composites must equal {!Golden.compose}'s over the same context and
    component state; the packet's events then train [topo]'s components
    with the composer's metadata. [name] is the verdict's subject. Both
    engines run this evaluator, so the compiled-vs-interpreted checks
    cannot catch its bugs. *)

val storage_accounting : Golden.packed -> verdict
(** The real component's [Storage.total_bits] must equal the textbook
    formula recomputed independently in {!Golden}. *)

val replay_twin : ?length:int -> seed:int -> Cobra_eval.Designs.t -> verdict
(** The end-to-end twin differential: the fuzz branch stream is run
    through [Cobra_trace_replay.Replay.drive] on the design and stepped
    ([Cobra_trace_replay.Replay.Sim.step]) through its
    {!Golden.twin_design}; both must agree on every per-branch
    [(taken_pred, wrong)] decision, and the replay totals must match the
    observation count. *)

val repair_restore : ?length:int -> seed:int -> Cobra_eval.Designs.t -> verdict
(** Metamorphic check: a pipeline subjected to speculative excursions
    (wrong-path packets that are squashed, and fired wrong-path packets
    unwound by the mispredict repair walk) must predict identically to an
    undisturbed pipeline fed the same committed branch stream. *)

val snapshot_roundtrip : ?length:int -> seed:int -> Cobra_eval.Designs.t -> verdict
(** Flat-state certification: the design replays half a fuzz stream, its
    whole-pipeline snapshot is restored into a fresh pipeline, and both
    must make bit-identical predictions over the rest of the stream — and
    end with bit-identical snapshots. *)

val compiled_twin :
  ?length:int -> ?shapes:Fuzz.shape list -> seed:int -> Cobra_eval.Designs.t -> verdict
(** The staged topology compiler's merge gate: a compiled engine
    ([Cobra_compile.Engine]) and an interpreted pipeline of the same design
    replay identical fuzz streams across every shape, fresh state per
    shape, and must agree bit-for-bit on every per-branch [(taken_pred,
    wrong)] decision, every component's metadata word, and the final
    snapshot slab. *)

val compiled_zoo :
  ?length:int -> ?shapes:Fuzz.shape list -> seed:int -> Golden.packed -> verdict
(** {!compiled_twin} over a single-component topology built from one zoo
    entry, so every component certifies its compiled kernel in isolation
    (selectors arbitrate two static leaves, keeping their incoming
    predictions real). *)

val table1_pins : unit -> verdict list
(** Regression pins of the paper's Table-I storage accounting for the three
    reference designs: exact [Storage.total_bits] and the rounded
    direction-state KB figures. *)

type engine = [ `Interpreted | `Compiled | `Both ]
(** Which simulator engines {!run_all} certifies: the interpreted suite,
    the compiled differentials, or (default) both. *)

val run_all :
  ?length:int ->
  ?shapes:Fuzz.shape list ->
  ?engine:engine ->
  seed:int ->
  unit ->
  verdict list
(** Everything above: per-component lockstep + storage over {!Golden.zoo},
    {!live_slots} over the zoo and {!compose} over [Designs.named]
    (engine-independent, so always run), the replay-vs-golden-twin
    differential over [Designs.named], repair-restores-state over
    [Designs.all], snapshot round-trips, the compiled-engine differentials
    ({!compiled_zoo} over the whole zoo and {!compiled_twin} over
    [Designs.named]), and the Table-I pins. [shapes] restricts the fuzz shapes (default:
    all, including the probe-derived ladder / alias-stress / loop-scan);
    [engine] (default [`Both]) restricts which simulator engines are
    certified — the live-slot and composition checks and the Table-I pins
    always run. *)

val failures : verdict list -> verdict list

val render : verdict list -> string
(** Per-component verdict table for the [cobra conform] CLI verb. *)

val counterexample : verdict list -> string option
(** Replayable failure report (one block per failed verdict), or [None]
    when everything passed — the artifact CI uploads on failure. *)
