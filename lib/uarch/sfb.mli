(** Short-forward-branch ("hammock") decode optimisation (paper VI-C).

    Implemented as a trace transformation, mirroring what the modified BOOM
    decoder does: a conditional direct branch whose target is a short
    forward distance is converted into a set-flag micro-op (it stops being a
    control-flow instruction, so it can never mispredict and the predictor
    never trains on it); instructions in its shadow become predicated —
    when the branch is taken the skipped slots are executed as no-ops that
    still consume pipeline bandwidth, and either way the shadow acquires a
    data dependency on the flag. *)

val transform : Cobra_isa.Trace.stream -> Cobra_isa.Trace.stream

val count_sfbs : Cobra_isa.Trace.event list -> int
(** How many events of a trace would be predicated (diagnostics). *)
