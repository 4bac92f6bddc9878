(** The tagged-table bank behind TAGE, ITTAGE and GTAG.

    A bank is a set of partially-tagged tables, each indexed by a hash of
    the slot's PC and the packet's history folded to its own length, as in
    Seznec's TAGE. Upstream COBRA builds even gshare as a one-table TAGE
    bank; here the three tagged components share one bank and keep only
    their payload cells, metadata words and allocation policies.

    {b Slab layout.} The component's [header] cells come first, at
    [0 .. header - 1], and belong to the component. Then each table in
    order, entry [i] of table [t] at [base t + i * (2 + payload)]:
    [+0] valid (0/1), [+1] tag, [+2 ..] the [payload] cells, read and
    written through {!get} and {!set}.

    {b Hashes.} With [h] the history (global or path) and [pc] the slot's
    byte address, table [t] of [index_bits] [b] and [tag_bits] [w] over
    history length [len] uses
    - index [pc_index pc b lxor fold h len b lxor fold_int (index_salt t) b];
    - tag [fold_int (mix2 (pc_bits pc) (fold h len w + tag_salt t)) w];

    where [fold h len b] is [Hashing.folded_history], 0 for [b = 0]. A
    0-bit index addresses the table's one entry; a 0-bit tag matches any
    valid entry. The salts are per-component constants that decorrelate
    the tables; the golden models restate each formula independently.

    {b Fold cache.} The history folds are slot-independent, so {!prepare}
    computes every table's index and tag fold once per packet, keyed on the
    context and its stamp ({!Cobra.Context}'s lifetime contract): later
    events of the same packet reuse them. When the tables share an index
    (or tag) width, one batched pass over the history folds every length;
    when each table's tag is as wide as its index, the tag folds are the
    index folds. *)

type spec = { history_length : int; index_bits : int; tag_bits : int }
(** One table: [1 lsl index_bits] entries of [tag_bits]-bit tags over the
    youngest [history_length] history bits. *)

type history = Ghist | Phist  (** which context history the tables fold *)

type t

val make :
  name:string ->
  header:int ->
  payload:int ->
  index_salt:(int -> int) ->
  tag_salt:(int -> int) ->
  history:history ->
  spec array ->
  t
(** [make ~name ~header ~payload ~index_salt ~tag_salt ~history specs]
    allocates the bank's slab and stages every per-table constant. Raises
    [Invalid_argument], prefixed by [name], on an empty [specs], a width
    outside [0, 62] or a negative history length. *)

val state : t -> Cobra_util.Slab.t
(** The bank's slab: the component's state, header cells included. *)

val prepare : t -> Cobra.Context.t -> unit
(** Fill the packet's folds; free when this (context, stamp) is already
    filled. Call before any of the per-slot functions below. *)

val pc_fold : t -> Cobra.Context.t -> slot:int -> int
(** The PC half of the slot's indexes, computed once per slot and passed
    as [pcv] below. *)

val entry : t -> Cobra.Context.t -> slot:int -> pcv:int -> table:int -> int
(** Slab offset of the entry the slot indexes in [table]. *)

val lookup : t -> Cobra.Context.t -> slot:int -> pcv:int -> table:int -> int
(** The indexed entry's offset when it is valid and its tag matches, else
    [-1]. *)

val longest_hit : t -> Cobra.Context.t -> slot:int -> pcv:int -> below:int -> int
(** The last table before [below], in [specs] order, whose entry hits,
    else [-1]. With tables listed shortest history first, [below] = the
    table count gives the provider and [below = provider] the next hit
    down. *)

val valid : t -> int -> bool

val claim : t -> Cobra.Context.t -> slot:int -> table:int -> int -> unit
(** [claim t ctx ~slot ~table e] marks entry [e] valid with the slot's tag;
    the caller sets the payload. *)

val get : t -> int -> int -> int
(** [get t e k] is payload cell [k] of entry [e]. *)

val set : t -> int -> int -> int -> unit

val iter_entries : t -> (int -> unit) -> unit
(** Every entry of every table, by offset. *)

val sram_bits : spec list -> payload_bits:int -> int
(** Valid bit, tag and payload per entry, summed over the tables. *)
