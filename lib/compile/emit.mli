(** Kernel emission: close specialized simulator functions over a {!Plan}.

    Emission turns the plan's integer constants into zero-dispatch closures:
    the flattened evaluation loop runs over a step array with registers
    preallocated per (register, stage), and the state blitters address the
    snapshot slab at cell offsets fixed at compile time. No per-packet list
    traversal, topology recursion, or composite-array allocation remains on
    the hot path.

    Per-slot opinion merging replicates [Types.merge]'s physical fast paths
    ([empty_opinion] pointer tests) exactly, so physical emptiness — which
    downstream predicates rely on — coincides with the interpreter's by
    induction, and all consumed values are bit-identical. *)

type t = {
  eval : Cobra.Context.t -> Cobra.Types.prediction array;
      (** [eval ctx] runs every component's [predict] in the plan's
          schedule order — each into its step's preallocated opinion vector
          and its own {!metas} buffer — and returns the root register's
          per-stage composites. The returned array and its rows are reused
          across calls: consume them before the next [eval]. *)
  metas : Cobra_util.Bits.t array;
      (** The per-component metadata buffers, indexed by component id and
          exactly each component's declared width; every [eval] overwrites
          them in place. *)
  snapshot_state : Cobra_util.Slab.t -> unit;
      (** Blit every component's state slab into a whole-design snapshot at
          the plan's precomputed offsets ([Pipeline.snapshot] layout). *)
  restore_state : Cobra_util.Slab.t -> unit;
      (** Inverse of [snapshot_state]. *)
}

val stage : Plan.t -> t
