(** The three COBRA-generated predictor designs of the paper (Table I,
    Fig 7):

    {v
    TAGE-L:  LOOP_3 > TAGE_3 > BTB_2 > BIM_2 > UBTB_1
    B2:      GTAG_3 > BTB_2 > BIM_2
    Tourney: TOURNEY_3 > [GBIM_2 > BTB_2, LBIM_2]
    v}

    Every call to [make] elaborates fresh (untrained) components, so a
    design can be instantiated once per experiment run. *)

type t = {
  name : string;
  make : unit -> Cobra.Topology.t;
  pipeline_config : Cobra.Pipeline.config;
}

val tourney : t
val b2 : t
val tage_l : t

val gshare_only : t
(** A single-component gshare design — the minimum-work floor of the
    benchmark's replay designs. Not part of {!all} (it is not one of the
    paper's designs). *)

val all : t list
(** Table I order: Tourney, B2, TAGE-L. *)

val named : t list
(** Every design {!find} knows: {!gshare_only}, then {!all}. *)

val find : string -> t
(** The design of {!named} with this name. Raises [Not_found]. *)

val pipeline : t -> Cobra.Pipeline.t
(** Elaborate a fresh pipeline for the design. *)

val tage_l_with_latency : int -> t
(** The TAGE-L design with the TAGE sub-component's latency overridden —
    the paper's Section VI-A physical-design experiment. The rest of the
    topology is untouched, demonstrating that latency changes are local to
    a sub-component. *)

val direction_state_kb : t -> float
(** Storage of the direction-prediction state (counter tables, tagged
    tables, selector, loop entries, histories) excluding BTB targets — the
    convention that matches Table I's storage column. *)
