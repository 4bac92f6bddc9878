(** Generated local-history provider (paper Section IV-B3).

    A PC-indexed table of per-branch history registers, speculatively
    updated by predicted directions and repaired from the per-packet
    snapshots kept in the history file during the mispredict forwards-walk.
    The paper notes this table is one of the larger management structures
    (visible in Fig 8's "Meta" slice). *)

type t

val create : entries:int -> bits:int -> t
(** [entries] must be a power of two. *)

val entries : t -> int
val bits : t -> int

val index : t -> pc:int -> int
val read : t -> pc:int -> Cobra_util.Bits.t

val push : t -> pc:int -> bool -> unit
(** Speculatively shift a predicted direction into the history of [pc]'s
    entry. The entry is replaced by a fresh vector: one returned by an
    earlier {!read} keeps its value. *)

val push_in_place : t -> pc:int -> bool -> unit
(** Like {!push}, but shifts the entry's vector itself — no allocation.
    Every vector an earlier {!read} or {!nth} returned for that entry sees
    the new value; other entries never do (entries share no storage). For
    hosts that, like the compiled engine, push only after the packet's
    last reader is done. *)

val restore : t -> pc:int -> Cobra_util.Bits.t -> unit
(** Write back a snapshot (repair). *)

val nth : t -> int -> Cobra_util.Bits.t
(** Raw table entry by index (whole-pipeline snapshots). *)

val set_nth : t -> int -> Cobra_util.Bits.t -> unit
(** Overwrite a raw table entry; raises [Invalid_argument] on a width
    mismatch. *)

val storage : t -> Storage.t
