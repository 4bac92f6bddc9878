(** The differential conformance driver.

    Replays {!Fuzz} streams through golden models ({!Golden}), real
    components and composed {!Cobra.Pipeline}s, demanding exact equivalence
    where the semantics require it (predictions, metadata bits, storage
    accounting) and metamorphic invariants elsewhere (repair restores
    pre-speculation state; squashed excursions leave no trace). Every
    verdict that fails carries a replayable description: the fuzz streams
    are pure functions of the seed, so one integer reproduces the run. *)

type verdict = {
  v_check : string;  (** lockstep / storage / twin / repair / table1 *)
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

val storage_accounting : Golden.packed -> verdict
(** The real component's [Storage.total_bits] must equal the textbook
    formula recomputed independently in {!Golden}. *)

val twin : ?length:int -> seed:int -> Cobra_eval.Designs.t -> verdict
(** End-to-end differential: the design and its {!Golden.twin_design} are
    stepped through the same branch stream
    ([Cobra_trace_replay.Replay.Sim.step], the software-model protocol) and
    must make identical predictions on every branch. *)

val replay_twin : ?length:int -> seed:int -> Cobra_eval.Designs.t -> verdict
(** Certifies the trace-replay driver: the fuzz branch stream is run
    through [Cobra_trace_replay.Replay.drive] on the design and stepped
    through its {!Golden.twin_design}; both must agree on every per-branch
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
    twin and replay-engine differentials over the reference designs (plus
    gshare-only), repair-restores-state over [Designs.all], snapshot
    round-trips, the compiled-engine differentials ({!compiled_zoo} over
    the whole zoo and {!compiled_twin} over the reference designs plus
    gshare-only), and the Table-I pins. [shapes] restricts the fuzz shapes (default:
    all, including the probe-derived ladder / alias-stress / loop-scan);
    [engine] (default [`Both]) restricts which simulator engines are
    certified — the Table-I pins always run. *)

val all_pass : verdict list -> bool
val failures : verdict list -> verdict list

val render : verdict list -> string
(** Per-component verdict table for the [cobra conform] CLI verb. *)

val counterexample : verdict list -> string option
(** Replayable failure report (one block per failed verdict), or [None]
    when everything passed — the artifact CI uploads on failure. *)
