(** Generated local-history provider (paper Section IV-B3).

    A PC-indexed table of per-branch history registers, speculatively
    updated by predicted directions and repaired from the per-packet
    snapshots kept in the history file during the mispredict forwards-walk.
    The paper notes this table is one of the larger management structures
    (visible in Fig 8's "Meta" slice). Entries are buffers, shifted and
    repaired in place. *)

type t

val create : entries:int -> bits:int -> t
(** [entries] must be a power of two. *)

val entries : t -> int
val bits : t -> int

val index : t -> pc:int -> int
val read : t -> pc:int -> Cobra_util.Bits.t
(** [pc]'s entry itself, not a copy: the next push or restore of that entry
    rewrites it. *)

val push_in_place : t -> pc:int -> bool -> unit
(** Speculatively shift a predicted direction into the history of [pc]'s
    entry, in place — no allocation. Every vector an earlier {!read} or
    {!nth} returned for that entry sees the new value; other entries never
    do (entries share no storage). A host that hands a history out past the
    next push copies it first. *)

val limbs : t -> int
(** Cells one entry occupies in an undo log ([Bits.limbs_for bits]). *)

val save_limbs : t -> pc:int -> int array -> pos:int -> unit
(** [save_limbs t ~pc log ~pos] copies [pc]'s entry into
    [log.(pos) .. log.(pos + limbs t - 1)]. *)

val restore_limbs : t -> pc:int -> int array -> pos:int -> unit
(** Write back, in place, an entry {!save_limbs} saved (repair). *)

val nth : t -> int -> Cobra_util.Bits.t
(** Raw table entry by index (whole-pipeline snapshots read and write its
    limbs in place). *)

val storage : t -> Storage.t
