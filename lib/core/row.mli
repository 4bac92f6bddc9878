(** A fetch-width row of int-encoded opinions: the bundle that components
    write, the {!Composer} merges and both engines read.

    A {!Types.opinion} is four optional fields; a row holds the same
    information in two int arrays, so that no opinion is a heap record and
    no store into a row pays OCaml's write barrier. Each slot is one word
    with a known bit and a value for each of [o_branch], [o_kind] and
    [o_taken], and a known bit for [o_target]; the target itself sits in a
    parallel int array and is read only when its known bit is set, so every
    int — 0, -1, [min_int] — is a target a row can hold. A slot whose word
    is 0 is silent (every field unknown). This is the shape of the
    fixed-width prediction bundle hardware muxes between banks.

    {!Types.opinion} and {!Types.merge_opinion} stay the specification:
    {!set} and {!get} encode and decode one slot, and {!merge_into} on
    encoded slots decodes to [merge_opinion] of the decoded slots. *)

type t

val create : width:int -> t
(** A silent row of [width] slots. *)

val width : t -> int

(** {1 Writing}

    A component's [out] row arrives silent; it writes the slots it has an
    opinion on with one of these and leaves the rest alone. *)

val clear : t -> unit
(** Silence every slot. *)

val clear_from : t -> int -> int -> unit
(** [clear_from row lo hi] silences slots [lo, hi). *)

val set_taken : t -> int -> bool -> unit
(** [set_taken row i b]: slot [i] says only its direction, [b] — the
    output of a counter table. *)

val set_branch : t -> int -> kind:Types.branch_kind -> target:int -> unit
(** Slot [i] holds a branch of [kind] with [target], direction unknown. *)

val set_full : t -> int -> kind:Types.branch_kind -> taken:bool -> target:int -> unit
(** Slot [i] holds a branch of [kind], [taken], with [target]. *)

val set : t -> int -> Types.opinion -> unit
(** Encode an opinion into slot [i]. *)

(** {1 Reading} *)

val branch : t -> int -> bool
(** Slot [i] is known to hold a branch. *)

val taken_known : t -> int -> bool
val taken : t -> int -> bool
(** The known direction of slot [i]; false when it is unknown. *)

val kind_known : t -> int -> bool
val kind : t -> int -> Types.branch_kind
(** The known kind of slot [i]; [Cond] when it is unknown. *)

val unconditional : t -> int -> bool
(** Slot [i]'s kind is known and is not [Cond]: a direction provider keeps
    quiet rather than override a known always-taken direction. *)

val target_known : t -> int -> bool
val target : t -> int -> int
(** The known target of slot [i]; meaningless when it is unknown. *)

val get : t -> int -> Types.opinion
(** Decode slot [i] (allocates: for tests, observers and golden models). *)

val to_prediction : t -> Types.prediction
(** Every slot decoded, as a fresh array. *)

val of_prediction : Types.prediction -> t
(** A fresh row encoding every opinion. *)

val equal : t -> t -> bool
(** Same width and, slot by slot, the same known fields with the same
    values: what [Types.equal_prediction] says of the decoded rows. *)

(** {1 Whole rows}

    Each takes a slot bound [len] ([<= width] of every row involved) and
    touches slots [0, len) only. *)

val blit : src:t -> dst:t -> len:int -> unit

val merge_into : strong:t -> weak:t -> dst:t -> len:int -> unit
(** Field-wise override, slot by slot: [strong]'s known fields win,
    unknown ones fall through to [weak]'s ({!Types.merge_opinion}). [dst]
    may be [weak]. *)

(** {1 Fetch decisions} *)

val taken_slot : t -> max_len:int -> int
(** The first slot below [min max_len (width row)] that redirects fetch — a
    known branch, known taken, with a known target — or -1. *)

val packet_len : t -> max_len:int -> int
(** Slots the packet consumes: through the first redirecting slot, else
    [min max_len (width row)]. *)

val direction_bits_into : t -> packet_len:int -> bool array -> int
(** The conditional-branch direction bits this row pushes into a global
    history register, oldest first, written into the front of [out]: one
    bit per slot believed to hold a conditional branch (a known branch of
    unknown or [Cond] kind), stopping after the first redirecting slot.
    Returns the bit count. *)

val pp : Format.formatter -> t -> unit
