(** Parameterised table indexing (paper Section III-G1).

    Counter tables in the library can be indexed "by a global history, local
    history, PC, or any hashed combination of the above". The classic
    global-history tables are indexings of one {!Hbim} table rather than
    components of their own: gshare (McFarling 1993) is
    [Hash [Pc; Ghist h]], and gselect is [Concat [(Pc, p); (Ghist h, h)]]
    over [2^(p + h)] entries. *)

type t =
  | Pc  (** folded instruction address *)
  | Ghist of int  (** youngest [n] bits of global history *)
  | Lhist of int  (** youngest [n] bits of the slot's local history *)
  | Phist of int  (** youngest [n] bits of path history (paper IV-B3) *)
  | Hash of t list  (** xor-combination of folded sources *)
  | Concat of (t * int) list
      (** [(source, width)] parts, each folded to its own width and
          concatenated, the first part in the high bits. The widths must add
          up to the table's index bits. [Ghist h] folded to [h] bits is the
          raw youngest [h] bits. *)

val index : t -> bits:int -> Cobra.Context.t -> slot:int -> int
(** [index src ~bits] stages the indexing for a table of [2^bits] entries:
    it walks [src] once and returns the per-slot index function, whose
    values lie in [0, 2^bits). The returned function matches nothing,
    builds no list and allocates nothing per call; apply [index] once, when
    the table is built. [bits = 0] gives the constant 0. Raises
    [Invalid_argument] on a [Concat] whose widths do not add up to its
    bits. *)

val describe : t -> string
(** E.g. [hash(pc^ghist[8])], [concat(pc:3++ghist[4]:4)]. *)
