(** Generated history file (paper Section IV-B1).

    Every fetch packet in flight between predict and commit is one {!entry}.
    [Pipeline.predict] creates it with the predict-time context (global,
    path and local histories), the metadata bitvector of every
    sub-component, the stage composites and the packet's speculative
    history contributions. The pipeline holds it on its pending list until
    the packet fires; [fire] fills in the per-slot predicted outcomes and
    enqueues it here; the backend fills in resolved outcomes, and entries
    are dequeued in program order to drive commit-time updates. *)

type slot_state = {
  predicted : Types.resolved;
  mutable actual : Types.resolved option;  (** filled when the backend resolves the slot *)
}

type entry = {
  e_token : int;  (** the pipeline's handle while the packet is pending *)
  e_ctx : Context.t;
  e_metas : Cobra_util.Bits.t array;  (** indexed by component id *)
  e_stages : Types.prediction array;  (** [e_stages.(d-1)] is the Fetch-[d] composite *)
  e_raw : Types.prediction array option;
      (** per-component raw predictions, indexed by component id; recorded
          only while an observer is attached at predict time *)
  mutable e_slots : slot_state array;  (** empty until the packet fires *)
  mutable e_packet_len : int;
      (** slots actually fetched, set at fire; shrunk when a mispredict cuts
          the packet *)
  mutable e_dir_bits : bool list;  (** global-history bits this packet contributes *)
  mutable e_path_bits : bool list;  (** path-history bits this packet contributes *)
  mutable e_lhist_pushes : (int * Cobra_util.Bits.t) list;
      (** (pc, prior value) for every local-history push this packet made, in
          push order — undone by squashes and the mispredict repair *)
}

type t

val create : capacity:int -> meta_bits:int array -> fetch_width:int -> ghist_bits:int -> lhist_bits:int -> t
(** [meta_bits] gives the declared metadata width per component — used for
    validation and for storage accounting. *)

val capacity : t -> int
val length : t -> int
val is_full : t -> bool

val enqueue : t -> entry -> int
(** Raises [Failure] when full; callers must backpressure fetch. *)

val get : t -> int -> entry
val contains : t -> int -> bool
val oldest : t -> (int * entry) option
val dequeue : t -> (int * entry) option
val drop_newer_than : t -> int -> unit
val iter_from : t -> int -> (int -> entry -> unit) -> unit
val to_list : t -> (int * entry) list

val storage : t -> Storage.t
(** Bit-accurate cost of the structure: per entry, the PC, the history
    snapshots, the per-slot prediction/resolution state and every
    component's metadata field. *)
