(** Cycle-level superscalar speculative core model (the BOOM stand-in).

    The model executes the {e retired-path} instruction stream of a workload
    while driving a COBRA predictor pipeline exactly as a hardware frontend
    would:

    - fetch follows {e predictions}, not the oracle stream: when the
      predicted path diverges from the true path, wrong-path placeholder
      packets are fetched (querying the predictor at the wrong PCs and
      consuming frontend/backend bandwidth) until the mispredicted branch
      resolves in the backend;
    - later pipeline stages override earlier fetch decisions, squashing the
      packets fetched in the shadow (the bubble cost of slow components);
    - when a late stage revises the packet's history bits without moving the
      PC, the speculative global history is left, repaired, or repaired and
      fetch replayed with the corrected history, as
      {!Config.t.history_divergence} says (paper Section VI-B);
    - the backend dispatches in order, issues on a dataflow scoreboard with
      functional-unit contention, resolves branches at completion (flushing
      and refetching on mispredicts) and commits in order, driving the
      history file's commit-time updates.

    The workload stream is read through a {!Cobra_isa.Trace.Window}. Each
    retired-path fetch packet records the stream position of its first
    slot, and every refetch is one rewind to a position: to the oldest
    squashed packet, past the slots a packet was cut to, or past the
    mispredicted branch at a flush. Commit releases the window through each
    retired instruction. Flushed correct-path instructions are thus
    genuinely re-fetched, so every frontend penalty has its true cost. *)

type t

val create :
  ?decode:(int -> Cobra_isa.Trace.event option) ->
  Config.t ->
  Cobra.Pipeline.t ->
  Cobra_isa.Trace.stream ->
  t
(** The core fetches packets as wide as the pipeline's
    {!Cobra.Pipeline.config} says. With {!Config.t.sfb_optimization} set, it
    reads the stream through {!Sfb.transform}.

    [decode] is the static instruction decode of the program image; when
    provided, wrong-path packets contain real decoded instructions (kinds,
    static targets, operand timing) instead of opaque placeholders, so
    wrong-path fetch follows static jumps, pushes honest history bits and
    exercises the return-address stack — the misspeculation realism of the
    paper's Section VI-B. *)

val run : t -> max_insns:int -> Perf.t
(** Simulate until [max_insns] instructions commit, the stream ends, or a
    safety bound of [20 * max_insns + 100_000] cycles is hit. *)

val perf : t -> Perf.t

val set_sampler : t -> (unit -> unit) option -> unit
(** Attach a per-cycle callback, invoked once per simulated cycle of {!run}
    (after resolve/commit/dispatch/frontend). Statistics collectors use it
    to drive interval metrics off {!perf}; [None] (the default) costs one
    match per cycle. *)
