(** A trace-based {e software} branch-predictor simulator — the methodology
    the paper argues against (Section II-B).

    It drives the very same composed predictor pipelines, but the way
    ChampSim/CBP-style simulators do: one branch at a time in retired order,
    with the final (deepest-stage) prediction always available, updates
    applied immediately at the next event, no speculative execution, no
    wrong-path fetch, no in-flight history corruption, no pipeline-latency
    effects and no repair traffic. That regime is exactly trace replay, so
    the model is a source adapter: it turns a workload's instruction stream
    into branch records and feeds them, through {!Replay.of_records}, to
    {!Replay.drive} on an interpreted pipeline.

    Comparing its accuracy estimates with the hardware-guided core model's
    measurements reproduces the paper's motivating observation: software
    simulation systematically mis-estimates predictor behaviour, and the
    error differs per design, so it can even mis-rank candidates. *)

val run :
  ?insns:int ->
  ?observe:(Btrace.cursor -> taken_pred:bool -> wrong:bool -> unit) ->
  Cobra_eval.Designs.t ->
  Cobra_workloads.Suite.entry ->
  Replay.result
(** Simulate [insns] instructions' worth of the workload's stream (default
    [Experiment.default_insns ()]) through the design's composed pipeline,
    trace-based-style. The result is labelled with the design and workload
    names; [observe] is {!Replay.drive}'s per-branch hook. *)

val comparison_report : unit -> string
(** Per design x benchmark subset: software-model accuracy vs the
    hardware-guided core model's measured accuracy. *)
