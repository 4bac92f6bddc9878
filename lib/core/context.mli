(** Query context handed to predictor sub-components.

    Matching the paper's pipeline contract (Fig 2): the fetch PC is available
    at cycle 0, and the global and local history vectors are provided at the
    end of the first cycle — which is why only components of latency [>= 1]
    exist, and all of them may use the histories.

    {b Lifetime.} A context describes one fetch packet, from its [predict]
    to its last event: every event of the packet carries the predict-time
    context, and its histories read as they did at predict time. Neither
    engine builds a context per packet. The interpreted [Pipeline] keeps
    one context in each of its recycled packet records, with its own
    history buffers: it {!reset}s the context and rewrites those buffers
    when the record's next packet is predicted, so a context is valid until
    its packet retires (commit, squash, or a mispredict that drops it). The
    compiled engine, which finishes each packet before predicting the
    next, owns one context for its whole life: it {!reset}s it per branch
    and shifts its history buffers in place only {e after} the branch's
    events are dispatched. A component may therefore cache work per
    packet, but must key the cache on the context {e and} its [stamp],
    never on physical identity alone. *)

type t = {
  mutable pc : int;  (** fetch PC (byte address of slot 0) *)
  mutable stamp : int;
      (** generation stamp: bumped by every {!reset}, so (context, stamp)
          names one packet even when the host reuses the record *)
  fetch_width : int;  (** slots per fetch packet *)
  mutable live_slots : int;
      (** slots the host can actually use this packet ([1..fetch_width];
          equals [fetch_width] unless the caller bounds it; a host reusing
          the context sets it per packet). A component may
          skip table work for slots [>= live_slots] — their opinions are
          never consumed and they never resolve as branches — but computing
          them anyway is equally correct. A skipping component writes no
          opinion for a dead slot and packs zeros for it, keeping its
          declared [meta_bits] layout. Either way, the live slots' opinions
          and metadata words equal those of an all-live predict on the same
          state (the [live_slots] conformance check holds every component to
          this). *)
  ghist : Cobra_util.Bits.t;  (** speculative global history, youngest bit = LSB *)
  lhists : Cobra_util.Bits.t array;  (** per-slot local history, indexed by slot *)
  phist : Cobra_util.Bits.t;
      (** speculative path history: folded target bits of recent taken
          branches (paper IV-B3's "other variants of history information");
          {!Pipeline.path_bits} wide in both engines, width 0 in a context
          built without one ({!make}'s default) *)
  mutable memo_keys : int array;  (** see {!folded_ghist} — managed internally *)
  mutable memo_vals : int array;
  mutable memo_count : int;
}

val slot_pc : t -> int -> int
(** [slot_pc t i] is the byte address of slot [i] (4-byte instructions). *)

val make :
  pc:int ->
  fetch_width:int ->
  ?live_slots:int ->
  ghist:Cobra_util.Bits.t ->
  lhists:Cobra_util.Bits.t array ->
  ?phist:Cobra_util.Bits.t ->
  unit ->
  t
(** [live_slots] defaults to [fetch_width]; raises [Invalid_argument]
    outside [1..fetch_width]. The stamp starts at 0. *)

val reset : t -> pc:int -> unit
(** Start the next packet on a reused context: set the PC, bump the stamp
    and clear the fold memo. The caller updates the history buffers the
    context points at (in place) before the next predict. *)

val live_bound : t -> int -> int
(** [live_bound t width] is [min width t.live_slots] — the slot bound a
    component with [width] slots of its own should iterate to when it wants
    to skip dead-slot work. *)

val folded_ghist : t -> len:int -> bits:int -> int
(** [folded_ghist t ~len ~bits] is
    [Bits.fold_xor_sub t.ghist ~len bits], memoized per packet: every
    component of a design folding the same history shape — at predict time
    or in a later event of the same packet — pays for the fold once. *)

val folded_phist : t -> len:int -> bits:int -> int
(** Same memoization over the path history. *)
