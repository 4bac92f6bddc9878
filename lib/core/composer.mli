(** The topology evaluator (paper Section IV): one predict of a whole
    design, run by both the interpreted {!Pipeline} and the compiled
    engine.

    [create] turns a topology into a static schedule: one step per
    component, in the recursive semantics' evaluation order
    ([Override (hi, lo)] evaluates [lo] first; arbitration sub-topologies
    run head-first, then the selector), so a component whose [predict] has
    side effects behaves as it would under a recursive walk. Each step reads
    its [predict_in] off stage [min latency depth - 1] of its source
    composites and overlays its opinions onto the first source — the
    running composite below a node, or an arbitration's default sub-path:
    stages before its latency show the source through, and from its latency
    on its set fields override ({!Types.merge}). A silent component shows
    every stage through.

    Every buffer is the composer's own, allocated once: a register bank of
    per-stage rows, one opinion vector and one metadata vector per
    component. A stage whose row below is physically the row below the
    previous merged stage shares that stage's merge, so a latency-1
    component over the all-silent bottom merges once, not once per stage.
    Physical emptiness ([== Types.empty_opinion]) is preserved per slot,
    exactly as {!Types.merge} preserves it. *)

type t

val create : fetch_width:int -> Topology.t -> t
(** Raises [Invalid_argument] when [fetch_width < 1], the topology fails
    {!Topology.validate}, or a component was built for another fetch width
    (naming the component and both widths): it would leave slots
    unpredicted, or write past the packet. *)

val eval : t -> Context.t -> Types.prediction array
(** Run every component's [predict] on [ctx] and return the root's
    per-stage composites: [(eval t ctx).(d-1)] is the prediction at
    Fetch-[d]. The array and its rows are the composer's buffers, valid
    until the next [eval]: copy what must outlive it. A component's
    [pred_in] list holds such rows and may be the same list from one
    [eval] to the next, so it too is read at [predict], not kept. *)

val components : t -> Component.t array
(** [Topology.components] order; a component's position is its id. *)

val depth : t -> int
(** [Topology.max_latency]: the number of stages {!eval} returns. *)

val metas : t -> Cobra_util.Bits.t array
(** Each component's metadata from the last {!eval}, indexed by component
    id and exactly its declared width. Overwritten in place by every
    [eval]. *)

val opinions : t -> Types.prediction array
(** Each component's own opinion vector from the last {!eval}, indexed by
    component id — what an observer attributes predictions to. Overwritten
    in place by every [eval]. *)
