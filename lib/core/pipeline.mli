(** The interpreted COBRA predictor pipeline (paper Section IV).

    [create config topology] elaborates a complete predictor pipeline from a
    topological model: it builds the topology's {!Composer} (which
    validates it), instantiates the generated management structures
    (history file, global and path history registers, local-history table,
    the update/repair state machine) and wires every sub-component's
    predict/fire/mispredict/repair/update events, including the metadata
    round-trip through the history file.

    Each in-flight fetch packet is one {!History_file.entry}, from predict
    to retirement: {!predict} takes a record from the pipeline's pool, the
    pending queue holds it until {!fire} fills in its slots and moves it
    into the history file, and {!commit} — or a squash, or a mispredict
    that drops the packet — retires it and gives the record back. A record
    is built once, with its own context and history buffers, metadata
    vectors, stage rows, slot vectors and event records, and a new one is
    built only when every record is in flight; so the steady state
    allocates no packet state. Whatever the pipeline hands out of a record
    — {!stages}, {!context}, {!entry} and observation payloads — is
    therefore valid until its packet retires, and rewritten when the
    record's next packet is predicted.

    The global and path registers and the local-history table are shifted
    in place. The registers hold the history through the last fired
    packet; the speculative value a new packet's context gets is those
    registers shifted by the pending packets' own bits, so revising or
    squashing a pending packet edits only that packet.

    The resulting pipeline is a drop-in prediction unit for a host core's
    frontend. The protocol mirrors hardware operation:

    {ol
    {- {!predict} — a fetch packet enters at Fetch-0; all per-stage composite
       predictions are computed (each sub-component's tables are read once,
       with predict-time state), the packet's record takes the Fetch-1
       composite's history bits, and a [token] for it is returned;}
    {- while the packet traverses the frontend, the host compares successive
       stage composites; when a later stage revises the packet's direction
       bits it calls {!revise_dir_bits} (divergence repair of the speculative
       history), and when it flushes speculative younger packets it calls
       {!squash_from};}
    {- {!fire} — the packet leaves the predictor pipeline and is accepted:
       its entry is written to the history file and sub-components receive
       their [fire] event;}
    {- the backend calls {!resolve} per executed branch, {!mispredict} on a
       misprediction (fast update + snapshot restore + forwards-walk repair +
       squash of younger state), and {!commit} as packets retire in program
       order (commit-time [update] events).}} *)

type config = {
  fetch_width : int;  (** slots per fetch packet *)
  ghist_bits : int;  (** global history register width *)
  lhist_bits : int;  (** per-entry local history width *)
  lhist_entries : int;  (** local history table entries (power of two) *)
}
(** The four choices that designs make differently. The rest of the
    management structures are sized alike for every design: see
    {!history_entries} and {!path_bits}. *)

val history_entries : int
(** History file capacity: 32 fired packets. {!can_fire} is false while
    the history file holds that many. *)

val path_bits : int
(** Path-history register width: 16. Each taken branch shifts in
    {!path_bits_per_branch} folded target bits. *)

val path_bits_per_branch : int
(** Folded target bits shifted into the path history per taken branch. *)

val config_spec : config -> string
(** A stable one-line rendering of every field, used to key the on-disk
    result cache. *)

val default_config : config
(** 4-wide fetch, 64-bit global history, 256 x 32-bit local histories. *)

val check_config : config -> unit
(** The one configuration check both engines run. Raises
    [Invalid_argument], naming the field and its value, when [fetch_width],
    [ghist_bits] or [lhist_bits] is below 1, or [lhist_entries] is not a
    power of two. *)

type t

type token
(** Handle for a predicted-but-not-yet-fired fetch packet. *)

val create : config -> Topology.t -> t
(** Raises [Invalid_argument] when the configuration fails {!check_config}
    or {!Composer.create} refuses the topology: it fails
    {!Topology.validate}, or a component was built for another fetch
    width. *)

val config : t -> config
val topology : t -> Topology.t
val depth : t -> int
val components : t -> Component.t array

val storage : t -> Storage.t
(** Sub-components plus management structures. *)

val management_storage : t -> Storage.t
(** History file + history registers + local-history table + generated
    redirect logic — the "Meta" slice of Fig 8. *)

(** {1 Frontend side} *)

val predict : t -> pc:int -> max_len:int -> token
(** Query the pipeline for the packet starting at [pc] containing up to
    [max_len] slots ([1 <= max_len <= fetch_width]). *)

val rows : t -> token -> Row.t array
(** [ (rows t tok).(d-1) ] is the composite prediction at Fetch-[d]: the
    packet record's own rows, valid until the packet retires. Reading them
    allocates nothing; slots at or past the packet's [max_len] are
    silent. *)

val stages : t -> token -> Types.prediction array
(** {!rows}, decoded into fresh opinion arrays: a copy for readers that want
    {!Types.opinion} records (tests, the conformance kit, the benchmark's
    written-out replay loop). It allocates on every call; the engines and the
    core read {!rows}. *)

val context : t -> token -> Context.t
(** The packet record's context, valid until the packet retires. *)

val applied_dir_bits : t -> token -> bool list
(** Direction bits this packet currently contributes to the speculative
    global history, as a fresh list. *)

val revise_dir_bits : t -> token -> bool list -> unit
(** Divergence repair: a later stage disagrees with the bits recorded at
    Fetch-1; replace them, which rebuilds the speculative history every
    younger context sees. In-flight younger packets keep the predictions
    they already formed — whether they are replayed is the host frontend's
    policy (the paper's Section VI-B experiment). Raises [Invalid_argument]
    on more bits than [fetch_width] (a packet has at most one per slot). *)

val pending_tokens : t -> token list
(** Oldest first. *)

val squash_from : t -> token -> unit
(** Drop this pending packet and every younger one, unwinding their
    speculative history contributions. *)

val squash_all_pending : t -> unit

val can_fire : t -> bool
(** False when the history file is full (fetch must backpressure). *)

val fire :
  ?correct:bool -> t -> token -> slots:Types.resolved array -> packet_len:int -> int
(** Move the packet into the history file, shift its bits into the history
    registers and deliver [fire] events.
    [slots] carries the {e predicted} outcome per slot, with [r_is_branch]
    corrected by predecode (the host knows the real instruction kinds by the
    end of the fetch pipeline). [token] must be the oldest pending packet.
    Returns the history-file sequence number.

    With [correct] (the default), predecode correction recomputes the
    packet's speculative history bits — global, path and local — from the
    true branch positions in [slots], with the directions of the acted
    prediction. [~correct:false] leaves the Fetch-1 composite's bits (or
    those {!revise_dir_bits} set) in the histories: the design without
    predecode correction, "none" in the paper's Section VI-B
    experiment. *)

(** {1 Backend side} *)

val resolve : t -> seq:int -> slot:int -> Types.resolved -> unit
(** Record a correctly-predicted branch's resolution. *)

val mispredict : t -> seq:int -> slot:int -> Types.resolved -> unit
(** Branch resolution detected a misprediction: forwards-walk younger
    entries delivering [repair] events (restoring their speculative local
    updates), then deliver the culprit's fast [mispredict] event — last, so
    the corrected state it writes is final — restore the global history
    from the entry's snapshot plus the corrected bits, unwind local-history
    state, squash younger entries and all pending packets, and truncate the
    entry at the culprit slot. The host must flush its own pipeline and
    refetch. *)

val commit : t -> unit
(** Retire the oldest history-file entry and deliver commit-time [update]
    events. Raises [Invalid_argument] when empty. *)

val inflight : t -> int
val oldest_seq : t -> int option

(** {1 Observation (statistics collectors)}

    A single optional observer receives out-of-band notifications at every
    protocol step. The pipeline is oblivious to what the observer does; with
    no observer attached no notification is built, the only cost is a
    [None] check per entry point, and per-component raw predictions are not
    recorded at all. This is the hook [Cobra_stats] attaches to — kept
    generic so [lib/core] does not depend on the stats library. *)

type observation =
  | Predicted of { token : token; pc : int; max_len : int }
  | Fired of { seq : int; entry : History_file.entry }
  | Resolved of { seq : int; slot : int; actual : Types.resolved; entry : History_file.entry }
  | Mispredicted of {
      seq : int;
      slot : int;
      actual : Types.resolved;
      entry : History_file.entry;
    }
  | Repaired of { seq : int }
  | Committed of { seq : int; packet_len : int; slots : Types.resolved array }
  | Squashed of { packets : int }
(** [entry] is the packet's own record — PC and histories in [e_ctx], the
    stage composites, the per-component raw predictions ([e_raw], [None]
    when no observer was attached at predict time) and the predicted slot
    outcomes. It is the pipeline's live state: never mutate it, and read it
    (like [Committed]'s [slots], the record's effective slot vector) no
    later than its packet's retirement — the record is then recycled. *)

val set_observer : t -> (observation -> unit) option -> unit
(** Attach (or detach, with [None]) the observer. At most one at a time. *)

val observed : t -> bool
(** True when an observer is attached. *)

(** {1 Whole-design snapshot}

    A quiesced pipeline (no pending packets, empty history file — the
    natural state between replay windows) checkpoints into one flat
    {!Cobra_util.Slab.t}: next token, the global and path history
    registers, the local-history table, then every component's state slab
    back to back.
    [snapshot]/[restore] cost one memcpy per region — O(state size),
    independent of how long the simulation ran. *)

val quiesced : t -> bool
(** No pending packets and an empty history file. *)

val snapshot : t -> Cobra_util.Slab.t
(** Raises [Invalid_argument] when the pipeline is not {!quiesced}. *)

val restore : t -> Cobra_util.Slab.t -> unit
(** Overwrite all mutable state from a snapshot taken on an identically
    configured pipeline. Clears pending packets itself; raises
    [Invalid_argument] when the history file is non-empty or the slab size
    does not match this design's snapshot layout. *)

(** {2 The slab layout}

    The one writer and reader of the snapshot layout, shared with the
    compiled engine so that slabs interchange between the two. The
    management prefix is sized from the configuration: next token, then
    the limbs of [ghist] ([ghist_bits] wide), [path] ({!path_bits} wide)
    and every local-history entry, then each component's state slab in
    order. *)

val write_slab :
  config ->
  Component.t array ->
  next_token:int ->
  ghist:Cobra_util.Bits.t ->
  path:Cobra_util.Bits.t ->
  Lhist_provider.t ->
  Cobra_util.Slab.t
(** A fresh slab of the given history values and component states. *)

val read_slab :
  engine:string ->
  config ->
  Component.t array ->
  Cobra_util.Slab.t ->
  ghist:Cobra_util.Bits.t ->
  path:Cobra_util.Bits.t ->
  Lhist_provider.t ->
  int
(** Load a slab in place into the [ghist] and [path] buffers, the
    local-history entries and the components' states, and return its next
    token. Raises [Invalid_argument], naming [engine] and both cell counts,
    when the slab size does not match the design. *)

(** {1 Introspection (tests, debugging)} *)

val ghist_value : t -> Cobra_util.Bits.t
(** The speculative global history a packet predicted now would see, as a
    fresh copy (the register itself shifts in place). *)

val phist_value : t -> Cobra_util.Bits.t
(** Likewise for the path history register ({!path_bits} wide). *)

val lhist_value : t -> pc:int -> Cobra_util.Bits.t
(** A copy of [pc]'s local-history entry. *)

val entry : t -> int -> History_file.entry
(** The history-file record of sequence number [seq], valid until its
    packet retires. *)
