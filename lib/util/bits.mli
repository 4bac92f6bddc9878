(** Fixed-width bitvectors.

    Branch histories, tags and the COBRA metadata field are all modelled as
    honest bitvectors with a declared width, so that storage accounting (and
    hence the area model) reflects what an RTL implementation would flop.

    Vectors are values: every function returns a fresh vector and leaves its
    arguments alone — except {!set_limb}, {!blit} and
    {!shift_in_lsb_in_place}, which rewrite a {e buffer} in place. Use them
    only on vectors their owner never hands out as values: a host's
    history registers and the metadata buffers it lends to components. *)

type t

val width : t -> int
(** Declared width in bits. *)

val zero : int -> t
(** [zero w] is the all-zeros vector of width [w]. Raises [Invalid_argument]
    if [w < 0]. *)

val copy : t -> t
(** A fresh vector equal to [t] — the value of a buffer, kept past the
    buffer's next rewrite. *)

val limbs_for : int -> int
(** [limbs_for w] is the number of 62-bit limbs backing a [w]-wide
    vector — the cell count a [w]-bit history occupies in a state slab. *)

val limb_count : t -> int
(** [limbs_for (width t)]. *)

val get_limb : t -> int -> int
(** [get_limb t i] is the [i]th little-endian 62-bit limb, for
    serializing a vector into a state slab (rebuild with {!set_limb}).
    Raises [Invalid_argument] when out of range. *)

val set_limb : t -> int -> int -> unit
(** [set_limb t i v] overwrites limb [i] of the buffer [t] with the low 62
    bits of [v >= 0] (bits above the width are cleared). Raises
    [Invalid_argument] when out of range. *)

val blit : src:t -> dst:t -> unit
(** [blit ~src ~dst] copies [src] into the buffer [dst]. Raises
    [Invalid_argument] unless the widths are equal. *)

val of_int : width:int -> int -> t
(** [of_int ~width v] keeps the low [width] bits of [v] ([v >= 0]). *)

val to_int : t -> int
(** Low [min width 62] bits as a non-negative [int]. *)

val get : t -> int -> bool
(** [get t i] is bit [i] (bit 0 = LSB). Raises [Invalid_argument] when out of
    range. *)

val set : t -> int -> bool -> t
(** Functional single-bit update. *)

val shift_in_lsb : t -> bool -> t
(** [shift_in_lsb h b] shifts the vector left by one, inserting [b] at bit 0
    and dropping the MSB — the canonical history-register update. *)

val shift_in_lsb_in_place : t -> bool -> unit
(** {!shift_in_lsb} applied to the buffer itself: no allocation. *)

val extract : t -> lo:int -> len:int -> t
(** [extract t ~lo ~len] is bits [lo .. lo+len-1] as a fresh [len]-wide
    vector. Bits beyond [width t] read as zero. *)

val extract_int : t -> lo:int -> len:int -> int
(** Like {!extract} but returned as an [int]; requires [len <= 62]. *)

val concat : hi:t -> lo:t -> t
(** [concat ~hi ~lo] places [hi] above [lo]; width is the sum. *)

val fold_xor : t -> int -> int
(** [fold_xor t n] xor-folds the whole vector into an [n]-bit integer
    ([1 <= n <= 62]) — the classic history-compression function. *)

val fold_xor_sub_multi : t -> lens:int array -> int -> out:int array -> unit
(** [fold_xor_sub_multi t ~lens n ~out] writes [fold_xor_sub t ~len:lens.(i) n]
    into [out.(i)] for every [i], in one allocation-free pass over the
    vector. [lens] must be ascending ([Invalid_argument] otherwise) and
    [out] the same length as [lens]. Bit-identical to calling
    {!fold_xor_sub} per length. *)

val fold_xor_sub : t -> len:int -> int -> int
(** [fold_xor_sub t ~len n] folds only the low [len] bits (allocation-free
    history compression). *)

val init : int -> (int -> bool) -> t
(** [init w f] builds a vector whose bit [i] is [f i]. *)

val popcount : t -> int
val equal : t -> t -> bool
val compare : t -> t -> int

val to_string : t -> string
(** MSB-first string of ['0']/['1'] characters. *)

val of_string : string -> t
(** Inverse of {!to_string}. Raises [Invalid_argument] on other characters. *)

val pp : Format.formatter -> t -> unit
