(** The topology evaluator (paper Section IV): one predict of a whole
    design, run by both the interpreted {!Pipeline} and the compiled
    engine.

    [create] turns a topology into a static schedule: one step per
    component, in the recursive semantics' evaluation order
    ([Override (hi, lo)] evaluates [lo] first; arbitration sub-topologies
    run head-first, then the selector), so a component whose [predict] has
    side effects behaves as it would under a recursive walk. Each step
    writes one register: [depth] {!Row.t}s the register owns. A step's
    [pred_in] is its sources' rows at stage [min latency depth - 1] — the
    running composite below a node, or each sub-topology's composite for an
    arbitration selector — so every step's [pred_in] array is built once, at
    [create]. The step's register rows show its first source through before
    its latency and, from its latency on, its opinions merged over the
    source ({!Row.merge_into}, which decodes to {!Types.merge}).

    Every buffer is the composer's own, allocated at [create]: the
    registers' rows, one opinion row and one metadata vector per component.
    [eval] copies and merges only the packet's live slots
    ({!Context.live_bound}) with int operations, and keeps the dead slots of
    every register row silent; a component's own [out] row is cleared before
    its [predict], whatever it writes. No [eval] allocates, and no store it
    makes pays the write barrier. *)

type t

val create : fetch_width:int -> Topology.t -> t
(** Raises [Invalid_argument] when [fetch_width < 1], the topology fails
    {!Topology.validate}, or a component was built for another fetch width
    (naming the component and both widths): it would leave slots
    unpredicted, or write past the packet. *)

val eval : t -> Context.t -> Row.t array
(** Run every component's [predict] on [ctx] and return the root's
    per-stage composites: [(eval t ctx).(d-1)] is the prediction at
    Fetch-[d]. Slots at or past [ctx]'s live bound are silent. The array and
    its rows are the composer's buffers, rewritten by the next [eval]: copy
    what must outlive it. *)

val components : t -> Component.t array
(** [Topology.components] order; a component's position is its id. *)

val depth : t -> int
(** [Topology.max_latency]: the number of stages {!eval} returns. *)

val metas : t -> Cobra_util.Bits.t array
(** Each component's metadata from the last {!eval}, indexed by component
    id and exactly its declared width. Overwritten in place by every
    [eval]. *)

val opinions : t -> Row.t array
(** Each component's own opinion row from the last {!eval}, indexed by
    component id — what an observer attributes predictions to. A component
    that computes its dead slots leaves those opinions here, though no
    composite reads them. Overwritten in place by every [eval]. *)
