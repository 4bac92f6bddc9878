(** The compiled simulator: a fused predict/fire/resolve/commit kernel for
    the trace-replay protocol.

    An engine evaluates its topology through the same {!Cobra.Composer} as
    the interpreted pipeline and snapshots through the pipeline's slab
    writer and reader; what it adds is the per-branch driver. It implements
    exactly the replay protocol ([Pipeline.predict ~max_len:1],
    [fire ~packet_len:1] with predecode correction, then
    [mispredict] or [resolve], then [commit] — one branch per packet, fully
    committed before the next), which lets the whole sequence collapse into
    closed-form history updates:

    - the pipeline is quiesced between branches, so no pending packet
      shifts the global and path history registers: the speculative
      histories are the registers themselves;
    - the protocol always corrects at fire, so each history takes the
      resolved outcome: one direction bit per conditional branch, and one
      folded target per taken branch;
    - the speculative local-history push and its predecode unwind cancel,
      leaving one net push per conditional branch;
    - the history file holds at most one entry, so the ring buffer reduces
      to a sequence counter and the per-branch metadata array;
    - every per-branch buffer is the engine's own, allocated once: one
      context ({!Cobra.Context.reset} per step), the composer's rows and
      per-component opinion rows and metadata vectors, the event records
      built over them, and the global/path/local history buffers, shifted
      in place after each step's events are dispatched; the step's
      predicted and resolved outcomes come from the engine's table of
      interned records ({!Cobra.Types.outcome}), so a step allocates
      nothing once every outcome of the trace has been seen.

    Predictions, metadata, counters and snapshot slabs are bit-identical to
    the interpreted [Pipeline] run under the same protocol; the
    [compiled_twin] conformance checks and [test/test_compile.ml] certify
    this fused protocol for every component, reference design and random
    topology. The composer both engines share is certified separately,
    against the plain recursive semantics of [Golden.compose]. *)

type t

val create : Cobra.Pipeline.config -> Cobra.Topology.t -> t
(** Build an engine. Validates like [Pipeline.create], with the same
    messages: [Invalid_argument] when the configuration fails
    [Pipeline.check_config] or the topology is invalid. *)

val step : t -> pc:int -> kind:Cobra.Types.branch_kind -> taken:bool -> target:int -> bool
(** Predict one branch, resolve it against the actual outcome, train, and
    return whether the prediction was wrong — the replay protocol's
    per-record transaction. [target < 0] means the trace does not know the
    target ([Btrace.no_target]). *)

val last_taken_pred : t -> bool
(** Predicted direction of the most recent {!step}. *)

val metas : t -> Cobra_util.Bits.t array
(** Metadata words of the most recent {!step}, indexed by component id.
    The array and the vectors in it are the engine's buffers, valid until
    the next {!step}: copy what must outlive it. *)

val snapshot : t -> Cobra_util.Slab.t
(** Whole-design snapshot, written by [Pipeline.write_slab]: slabs
    interchange freely between compiled and interpreted engines of the
    same design. Cell 0 counts the branches stepped so far, as the
    interpreted pipeline's token counter does. *)

val restore : t -> Cobra_util.Slab.t -> unit
(** Raises [Invalid_argument] on a cell-count mismatch. *)
