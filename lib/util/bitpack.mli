(** Packing structured fields into metadata bitvectors.

    COBRA metadata is an opaque bitvector of a declared width; components
    pack their predict-time fields into the buffer their host lends them and
    recover them in later events, keeping the bit-accounting honest.
    {!pack}/{!unpack} are the list-based reference forms; {!Packer} is the
    allocation-free hot path that writes into the host's buffer. *)

val width_of : int list -> int
(** Total width of a field layout. *)

val pack : width:int -> (int * int) list -> Bits.t
(** [pack ~width fields] packs [(value, bits)] pairs, first field in the low
    bits. Raises [Invalid_argument] if a value does not fit its field or the
    fields do not fill [width] exactly. *)

val unpack : Bits.t -> int list -> int list
(** [unpack bits layout] recovers the field values; [layout] must cover the
    vector exactly. *)

val field : int -> bits:int -> int
(** [field v ~bits] is [v], checked to fit an unsigned [bits]-wide field
    ([0 <= bits <= 62]); raises [Invalid_argument] otherwise. Components
    compose a slot's fields into one word with it — first field in the low
    bits, as {!pack} lays them out — and hand the word to {!Packer.add}
    once. *)

val store : owner:string -> Bits.t -> dst:Bits.t -> unit
(** [store ~owner v ~dst] copies an already-packed vector (e.g. from {!pack})
    into the metadata buffer [dst], with {!Packer.finish_into}'s width
    check. *)

(** Reusable accumulator for the per-cycle hot path: the same checks and bit
    layout as {!pack}, but fields are written straight into a persistent
    scratch buffer instead of consing a [(value, width)] list per call. A
    component allocates one packer at elaboration time and calls
    [add]* / [finish_into] once per predict. *)
module Packer : sig
  type t

  val create : owner:string -> width:int -> t
  (** A packer for metadata vectors of exactly [width] bits, belonging to
      the component named [owner] (every error names it). *)

  val add : t -> int -> bits:int -> unit
  (** [add t v ~bits] appends [v] as the next [bits]-wide field (first field
      in the low bits, matching {!pack}). Raises [Invalid_argument] when the
      value does not fit or the fields overflow [width]. *)

  val add_zeros : t -> bits:int -> unit
  (** [add_zeros t ~bits] appends [bits] zero bits (any count, e.g. every
      dead slot of a packet at once). Raises [Invalid_argument] when the
      fields overflow [width]. *)

  val finish_into : t -> Bits.t -> unit
  (** [finish_into t dst] seals the accumulated fields into the caller's
      buffer [dst] and resets the packer for the next cycle. Raises
      [Invalid_argument] (after resetting) unless the fields cover [width]
      exactly, and — naming the owner and both widths — unless [dst] is
      [width] bits wide. *)

  val reset : t -> unit
  (** Discard any partially accumulated fields (error recovery). *)
end
