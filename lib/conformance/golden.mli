(** Pure-functional golden models of every COBRA component.

    Each model is a small, obviously-correct specification of one component
    in [lib/components/], written against the documented metadata layouts and
    hash functions but independently of the optimized per-slot-word
    [Bitpack.Packer] hot path: state is an immutable value, every event
    handler is a pure [state -> event -> state] function, metadata is
    assembled with the plain [Bitpack.pack] reference packer and read back
    with [Bitpack.unpack], and [predict] returns a fresh
    [(prediction, meta)] pair instead of writing host buffers. The
    cross-check driver ({!Crosscheck}) replays identical event streams
    through a model and the real component and demands bit-identical
    predictions and metadata. *)

open Cobra

(** A golden model over an explicit, immutable state type. *)
type 'a model = {
  name : string;
  meta_bits : int;
  arity : int;  (** [pred_in] vectors consumed by [predict] *)
  init : 'a;
  predict :
    'a -> Context.t -> pred_in:Types.prediction list -> Types.prediction * Cobra_util.Bits.t;
  fire : 'a -> Component.event -> 'a;
  mispredict : 'a -> Component.event -> 'a;
  repair : 'a -> Component.event -> 'a;
  update : 'a -> Component.event -> 'a;
  invariant : 'a -> (unit, string) result;
      (** structural sanity of reachable state: counters inside their
          declared ranges, confidences within bounds, ... *)
}

(** A model packed with its real counterpart and an independently derived
    storage accounting. *)
type packed =
  | P : {
      model : 'a model;
      make_real : unit -> Component.t;
      storage_bits : int;
          (** expected [Storage.total_bits] of the real component, recomputed
              here from the configuration by the textbook formula *)
    }
      -> packed

val packed_name : packed -> string

(* --- model constructors (one per component in lib/components/) ------------- *)

val hbim : Cobra_components.Hbim.config -> packed
(** Also the gshare and gselect models: they are HBIM indexings. *)

val gtag : Cobra_components.Gtag.config -> packed
val gehl : Cobra_components.Gehl.config -> packed
val yags : Cobra_components.Yags.config -> packed
val perceptron : Cobra_components.Perceptron.config -> packed
val tage : Cobra_components.Tage.config -> packed
val ittage : Cobra_components.Ittage.config -> packed
val tourney : Cobra_components.Tourney.config -> packed
val loop_pred : Cobra_components.Loop_pred.config -> packed
val statistical_corrector : Cobra_components.Statistical_corrector.config -> packed
val btb : Cobra_components.Btb.config -> packed
val ubtb : Cobra_components.Ubtb.config -> packed
val static_always : name:string -> taken:bool -> fetch_width:int -> packed

(* --- imperative instantiation ---------------------------------------------- *)

(** A mutable handle over a pure model: the state lives in a ref, the
    handlers apply the pure transitions. Snapshots are free (persistent
    state), which is what makes repair round-trip tests cheap to write. *)
type inst = {
  i_name : string;
  i_meta_bits : int;
  i_arity : int;
  i_predict :
    Context.t -> pred_in:Types.prediction list -> Types.prediction * Cobra_util.Bits.t;
  i_fire : Component.event -> unit;
  i_mispredict : Component.event -> unit;
  i_repair : Component.event -> unit;
  i_update : Component.event -> unit;
  i_invariant : unit -> (unit, string) result;
  i_snapshot : unit -> unit -> unit;
      (** [let restore = i_snapshot () in ... ; restore ()] rolls the model
          back to the captured state *)
}

val instantiate : packed -> inst

val compose :
  fetch_width:int ->
  Topology.t ->
  predict:(Component.t -> pred_in:Types.prediction list -> Types.prediction) ->
  Types.prediction array
(** The plain recursive Override/Arbitrate semantics over {!Types.merge}:
    the reference the shared {!Cobra.Composer} is checked against. [predict
    c ~pred_in] is component [c]'s opinion vector on the wanted
    [predict_in]. Returns the per-stage composites, [depth] rows of fresh
    arrays: a node's opinions override the composite below it from its
    latency on, reading [predict_in] at stage [min latency depth]; an
    arbitration selector reads each sub-topology's composite at its
    latency and overrides the first sub-topology's. *)

val zoo : unit -> packed list
(** One deliberately small-tabled instance of every component: heavy
    aliasing, frequent allocation and fast saturation, which is what the
    lockstep fuzz check wants. *)

val twin_design : Cobra_eval.Designs.t -> Cobra_eval.Designs.t
(** The same topology and pipeline configuration as a reference design, with
    every component replaced by its golden model. Supports the designs in
    [Designs.named]; raises [Invalid_argument] for anything else. *)
