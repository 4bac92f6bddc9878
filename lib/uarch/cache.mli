(** Set-associative cache tag array with LRU replacement.

    Models presence only (no data), which is all the timing model needs. *)

type t

val create : name:string -> size_bytes:int -> ways:int -> line_bytes:int -> t
(** Raises [Invalid_argument] unless sets and line size are powers of two. *)

val name : t -> string

val access : t -> addr:int -> bool
(** [true] on hit. On a miss the line is filled (allocate-on-miss) and the
    LRU way evicted. *)

val probe : t -> addr:int -> bool
(** Hit check without side effects. *)

val prefetch : t -> addr:int -> unit
(** Fill a line without counting a hit or miss (used by the frontend's
    next-line prefetcher). *)

val hits : t -> int
val misses : t -> int
