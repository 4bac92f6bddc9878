(** The COBRA predictor sub-component interface (paper Section III).

    A sub-component is a stateful object with a declared pipeline latency, a
    declared metadata width, and handlers for the five prediction events:

    - [predict] — begin a prediction for a fetch PC: write the component's
      own (possibly partial, possibly empty) opinion vector and its metadata
      into buffers the host owns;
    - [fire] — the fetch packet proceeded; speculatively update local state
      (slots carry the {e predicted} outcomes);
    - [mispredict] — fast update at branch resolution (slots carry resolved
      outcomes; [culprit] names the offending slot);
    - [repair] — restore misspeculated local state for a squashed in-flight
      packet (issued during the composer's forwards-walk);
    - [update] — slow commit-time training in program order.

    The metadata written at [predict] is stored in the generated history
    file and handed back verbatim in every subsequent event for the same
    packet, together with the predict-time context — exactly the paper's
    metadata contract (Section III-D/E).

    {b Caller-owned buffers.} The host owns every per-packet buffer, in the
    [predict(ip)] / [update(ip, taken)] style of ChampSim/CBP predictors:

    - [pred_in] holds the incoming composites, one {!Row.t} per source
      (one for a node, one per sub-topology for an arbitration selector),
      each [fetch_width] slots; they are the host's rows, read during
      [predict] and never written;
    - [out] arrives as a silent [fetch_width] {!Row.t}; the component
      writes its opinions into the slots it has one on ({!Row.set_taken}
      for a direction, {!Row.set_branch} or {!Row.set_full} for a target
      provider) and leaves the other slots alone;
    - [meta] arrives exactly [meta_bits] wide; the component overwrites all
      of it, normally by sealing a {!Cobra_util.Bitpack.Packer} into it with
      [finish_into]. A component whose metadata is not [meta_bits] wide is
      refused on both engines with an [Invalid_argument] naming it and both
      widths;
    - a handler keeps no reference to [pred_in], [out], [meta] or an
      [event] after it returns: the {!Composer} both engines predict
      through reuses them for the next packet, and both engines build
      their events once.

    {b Live slots.} A component may skip every slot at or past
    [ctx.live_slots] (see {!Context.t}): no opinion, zero metadata. Hot
    kernels pack one word per live slot and decode, in their event
    handlers, only the slots they act on. The composer reads only the live
    slots of [out] and keeps the dead slots of every composite silent, so
    [pred_in]'s dead slots are silent too. *)

type event = {
  ctx : Context.t;  (** predict-time context (PC and histories) *)
  meta : Cobra_util.Bits.t;
      (** this component's metadata from predict time (the host's buffer:
          valid for the duration of the handler) *)
  slots : Types.resolved array;  (** per-slot outcomes (predicted or resolved) *)
  culprit : int option;  (** mispredicted slot, for [mispredict]/[repair] *)
}

type event_kind = Predict | Fire | Mispredict | Repair | Update
(** The five prediction events of the component contract, as an enumerable
    label — the axis of the per-component event counters kept by
    [Cobra_stats]. *)

val all_event_kinds : event_kind list
(** In [event_kind_index] order. *)

val event_kind_name : event_kind -> string
val event_kind_index : event_kind -> int
(** A dense [0..4] index for counter arrays. *)

type family =
  | Counter_table
  | Btb
  | Micro_btb
  | Tagged_table
  | Tage
  | Loop
  | Selector
  | Perceptron
  | Corrector
  | Static
(** Broad structural family, used by the area model for grouping. *)

val pp_family : Format.formatter -> family -> unit

type t = private {
  name : string;
  family : family;
  fetch_width : int;
      (** slots per packet the component was built for: its configuration's
          [fetch_width]. {!Composer.create} refuses a component whose width
          is not the pipeline's. *)
  latency : int;
  meta_bits : int;
  storage : Storage.t;
  state : Cobra_util.Slab.t;
      (** the component's complete mutable state, as one flat slab (empty
          for stateless components); see {!snapshot}/{!restore} *)
  predict :
    Context.t ->
    pred_in:Row.t array ->
    out:Row.t ->
    meta:Cobra_util.Bits.t ->
    unit;
  fire : event -> unit;
  mispredict : event -> unit;
  repair : event -> unit;
  update : event -> unit;
}

val make :
  name:string ->
  family:family ->
  fetch_width:int ->
  latency:int ->
  meta_bits:int ->
  storage:Storage.t ->
  ?state:Cobra_util.Slab.t ->
  predict:
    (Context.t ->
    pred_in:Row.t array ->
    out:Row.t ->
    meta:Cobra_util.Bits.t ->
    unit) ->
  ?fire:(event -> unit) ->
  ?mispredict:(event -> unit) ->
  ?repair:(event -> unit) ->
  ?update:(event -> unit) ->
  unit ->
  t
(** Build a component. [fetch_width] is the packet width the component
    predicts for, its configuration's own; a pipeline of another width
    refuses it. Unused events default to no-ops — implementations
    "may choose to use and ignore arbitrary subsets of these five signals".
    [state] is the component's flat state slab; handlers must close over it
    (and nothing else mutable) so that {!snapshot}/{!restore} capture the
    component completely. Defaults to {!Cobra_util.Slab.empty} for
    stateless components. Raises [Invalid_argument] when [latency < 1]
    (predictions cannot be made before Fetch-1) or [meta_bits < 0]. *)

val label : t -> string
(** ["NAME_n"], the paper's notation for a component of latency [n]. *)

(** {1 Flat-state snapshots}

    Because all mutable state lives in [state], checkpointing a component
    is a single memcpy — O(storage), independent of simulation length. *)

val state_cells : t -> int
(** Slab length in cells. *)

val snapshot : t -> Cobra_util.Slab.t
(** A fresh copy of the component's entire mutable state. *)

val restore : t -> Cobra_util.Slab.t -> unit
(** Overwrite the component's state with a snapshot taken earlier from
    the same component (or an identically-configured twin). Raises
    [Invalid_argument] on a slab-size mismatch. *)
