(** Generated history file (paper Section IV-B1).

    Every fetch packet in flight between predict and commit is one {!entry}:
    a fixed-capacity record of fixed-width fields, like the hardware's. The
    [Pipeline] builds each record once, with every buffer it will need, and
    recycles it: [predict] takes a free record and writes the predict-time
    context (global, path and local histories), the metadata bitvector of
    every sub-component, the stage composites and the packet's speculative
    history contributions into it; [fire] fills in the per-slot predicted
    outcomes and enqueues it here; the backend fills in resolved outcomes,
    and entries are dequeued in program order to drive commit-time
    updates. A record goes back to the pipeline's pool when its packet
    retires — commit, squash or a mispredict that drops it — so a reference
    to a record or any of its buffers is valid until then.

    The ring itself is unboxed: [capacity] slots of records, addressed by
    monotonically increasing sequence numbers. *)

type entry = {
  mutable e_token : int;  (** the pipeline's handle while the packet is pending *)
  e_ctx : Context.t;  (** the packet's predict-time context, its own buffers *)
  e_metas : Cobra_util.Bits.t array;  (** indexed by component id *)
  e_stages : Row.t array;  (** [e_stages.(d-1)] is the Fetch-[d] composite *)
  mutable e_raw : Row.t array option;
      (** per-component raw predictions, indexed by component id; recorded
          only while an observer is attached at predict time (into the rows
          of the record's last observed packet, when it has one) *)
  e_predicted : Types.resolved array;
      (** per-slot predicted outcomes, set at fire — the slots of the
          packet's [fire] and [repair] events *)
  e_actual : Types.resolved array;
      (** per-slot resolved outcomes: the predicted one until the backend
          resolves the slot *)
  e_effective : Types.resolved array;
      (** [e_actual] within [e_packet_len], no branch beyond — the slots of
          the packet's [mispredict] and [update] events, rebuilt before
          them *)
  mutable e_packet_len : int;
      (** slots actually fetched, set at fire; shrunk when a mispredict cuts
          the packet *)
  e_dir_bits : bool array;
      (** global-history bits this packet contributes, oldest first: the
          first [e_dir_len] of [fetch_width] *)
  mutable e_dir_len : int;
  mutable e_path : int;
      (** the folded target this packet shifts into the path history, or
          [-1] when it contributes none *)
  e_lhist_pcs : int array;
  e_lhist_prior : int array;
  mutable e_lhist_len : int;
      (** undo log of the local-history pushes this packet made, in push
          order: the first [e_lhist_len] PCs, each with its entry's prior
          limbs — undone by squashes and the mispredict repair *)
  e_fire_evs : Component.event array;
      (** per component, over [e_predicted] — the [fire] and [repair] events *)
  e_update_evs : Component.event array;  (** per component, over [e_effective] *)
  e_mispredict_evs : Component.event array array;
      (** per culprit slot, per component: the [mispredict] events over
          [e_effective], each naming its slot as the culprit *)
}

val dir_bits : entry -> bool list
(** The first [e_dir_len] of [e_dir_bits], as a fresh list. *)

type t

val create : capacity:int -> meta_bits:int array -> fetch_width:int -> ghist_bits:int -> lhist_bits:int -> t
(** [meta_bits] gives the declared metadata width per component, for
    storage accounting. Raises [Invalid_argument] if [capacity < 1]. *)

val length : t -> int
val is_full : t -> bool

val enqueue : t -> entry -> int
(** Append at the tail and return the entry's sequence number. Raises
    [Failure] when full; callers must backpressure fetch. *)

val get : t -> int -> entry
(** Raises [Invalid_argument] for dead or future sequence numbers. *)

val oldest_seq : t -> int
(** Sequence number of the oldest entry — the next one to be enqueued when
    the file is empty. *)

val dequeue : t -> entry
(** Pop the oldest entry (commit order). Raises [Invalid_argument] when
    empty. *)

val next_seq : t -> int
(** The sequence number the next {!enqueue} gets: one past the newest live
    entry. The live entries are [oldest_seq t .. next_seq t - 1]. *)

val drop_newest : t -> entry
(** Pop the newest entry (a squash walks back youngest first). Raises
    [Invalid_argument] when empty. *)

val storage : t -> Storage.t
(** Bit-accurate cost of the structure: per entry, the PC, the history
    snapshots, the per-slot prediction/resolution state and every
    component's metadata field. *)
