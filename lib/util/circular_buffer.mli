(** Bounded FIFO with stable sequence-number handles.

    Entries are enqueued in order, addressed by a monotonically increasing
    sequence number, updated in place, squashed from the tail and dequeued
    from the head. The uarch core's reorder buffer is its one user; the
    pipeline's history file keeps its own unboxed ring
    ([Cobra.History_file]). *)

type 'a t

val create : capacity:int -> 'a t
(** Raises [Invalid_argument] if [capacity < 1]. *)

val capacity : 'a t -> int
val length : 'a t -> int
val is_empty : 'a t -> bool
val is_full : 'a t -> bool

val enqueue : 'a t -> 'a -> int
(** Append at the tail, returning the entry's sequence number. Raises
    [Failure] when full — callers are expected to check {!is_full} and apply
    backpressure, as the hardware would. *)

val contains : 'a t -> int -> bool
(** Whether a sequence number is currently live in the window. *)

val get : 'a t -> int -> 'a
(** Raises [Invalid_argument] for dead or future sequence numbers. *)

val set : 'a t -> int -> 'a -> unit

val oldest : 'a t -> (int * 'a) option
val newest : 'a t -> (int * 'a) option

val dequeue : 'a t -> (int * 'a) option
(** Pop the head entry (commit order). *)

val drop_newer_than : 'a t -> int -> unit
(** Squash every entry with sequence number strictly greater than the
    argument. Dropping relative to a dead sequence number empties the
    buffer if that number precedes the window, and does nothing if it is
    past the newest entry. *)

val iter_from : 'a t -> int -> (int -> 'a -> unit) -> unit
(** [iter_from t seq f] visits live entries from [seq] (inclusive, clamped to
    the head) to the newest, in age order — the repair forwards-walk. *)

val iter : 'a t -> (int -> 'a -> unit) -> unit
val to_list : 'a t -> (int * 'a) list
