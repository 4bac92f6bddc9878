(** The pipeline observer: attaches to {!Cobra.Pipeline.set_observer} and
    accumulates per-component event counters, per-mispredict attribution,
    arbitration tallies, the hard-branch table and (via {!sample}) the
    interval series.

    {b Attribution invariant}: every [Mispredicted] observation lands in
    exactly one bucket — a component name, or one of the pseudo-buckets
    ["default"], ["frontend"], ["unattributed"] — so the bucket sum equals
    the pipeline's total mispredict count by construction. Since the host
    core calls [Pipeline.mispredict] exactly once per counted misprediction,
    the sum also equals [Perf.mispredicts].

    The collector keeps no copy of any packet: observations about a fired
    packet carry the pipeline's own history-file entry, and the attribution
    and branch tables read it during the notification.

    Who caused a mispredict is decided from the per-component raw
    predictions recorded at predict time, recomposed in the composer's
    overlay order (Override: high over low; Arbitrate: selector over its
    first sub-topology only): the chain's direction winner for a wrong
    direction, the target provider for a wrong target, ["default"] when no
    component opined and the not-taken fallthrough lost, ["frontend"] when
    the acted fetch decision diverged from the composite (RAS targets,
    decode corrections). *)

type t

val create : ?interval_width:int -> Cobra.Pipeline.t -> t
(** Builds the collector and attaches it as the pipeline's observer.
    [interval_width] defaults to 1000 instructions. *)

val detach : t -> unit
(** Detach from the pipeline (collection stops; accumulated state remains
    readable). *)

val sample : t -> insns:int -> cycles:int -> mispredicts:int -> unit
(** Feed cumulative run counters into the interval series (wire this to the
    host core's per-cycle sampler). *)

val flush : t -> insns:int -> cycles:int -> mispredicts:int -> unit
(** Close the final partial interval bucket. *)

val total_mispredicts : t -> int
val buckets : t -> (string * int) list

val report :
  ?design:string ->
  ?workload:string ->
  ?perf:(string * int) list ->
  ?top:int ->
  t ->
  Report.t
(** Snapshot everything into an exportable report. [top] bounds the branch
    table (default 20). *)
