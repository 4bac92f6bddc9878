(** The pipeline observer: attaches to {!Cobra.Pipeline.set_observer} and
    accumulates per-component event counters, per-mispredict attribution,
    arbitration tallies, the hard-branch table and (via {!sample}) the
    interval series. One lifecycle: {!create} attaches, {!sample} runs on
    every cycle, and {!report} closes the run, detaches and snapshots.

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

val create : Cobra.Pipeline.t -> t
(** Builds the collector and attaches it as the pipeline's observer. Its
    interval series starts at 1000 instructions per bucket. *)

val sample : t -> insns:int -> cycles:int -> mispredicts:int -> unit
(** Feed cumulative run counters into the interval series (wire this to the
    host core's per-cycle sampler). *)

val report :
  t ->
  insns:int ->
  cycles:int ->
  mispredicts:int ->
  design:string ->
  workload:string ->
  perf:(string * int) list ->
  Report.t
(** End the run: close the final partial interval bucket at the run's
    final counters, detach from the pipeline, and snapshot everything into
    a report of [design] on [workload] carrying the run's [perf] counters.
    Its branch table keeps the 20 hardest branches. *)
