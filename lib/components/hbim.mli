(** Bimodal counter table with parameterised indexing (paper III-G1).

    A superscalar table of saturating direction counters: every fetch-packet
    slot reads its own entry, indexed by PC, global history, local history
    or any hashed or concatenated combination ({!Indexing}). This is the
    library's one counter table: gshare is
    [{entries = 1 lsl b; indexing = Hash [Pc; Ghist h]}] and gselect is
    [{entries = 1 lsl (p + h); indexing = Concat [(Pc, p); (Ghist h, h)]}].
    {!make} stages the indexing once, so the per-slot index does no match
    and allocates nothing. The counter values read at predict time are
    stored in the metadata field so that the commit-time update never
    re-reads the table — the paper's flagship use of metadata (III-D).

    The component provides {e direction only} (its opinion sets [o_taken]);
    branch existence and targets come from tagged structures such as a BTB,
    exactly as in the paper's composed designs. *)

type config = {
  name : string;
  latency : int;
  entries : int;  (** power of two *)
  counter_bits : int;
  indexing : Indexing.t;
  fetch_width : int;
}

val default : name:string -> indexing:Indexing.t -> config
(** 2048 entries, 2-bit counters, latency 2, 4-wide. *)

val make : config -> Cobra.Component.t
(** Raises [Invalid_argument], naming the component, when [entries] is not
    a power of two or a [Concat] indexing's widths do not add up to
    [log2 entries]. *)
