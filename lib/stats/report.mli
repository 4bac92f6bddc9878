(** The exportable statistics report: attribution, per-component event
    counters, arbitration tallies, hard-branch table, interval series.

    Both export formats carry every numeric field exactly: JSON through
    {!Json}, CSV as flat [section,name,field,value] rows. *)

type component_row = {
  cr_name : string;
  cr_events : int array;
      (** indexed by {!Cobra.Component.event_kind_index}: predict, fire,
          mispredict, repair, update *)
  cr_caused : int;  (** mispredicts attributed to this component *)
  cr_saved : int;
      (** correct conditional predictions where this component won the
          composite and the next opinion in the chain (or the static
          not-taken default) was wrong *)
}

type arb_sub_row = {
  as_name : string;
  as_won : int;  (** decisions where the selector output matched this sub *)
  as_won_right : int;
  as_won_wrong : int;
  as_right : int;  (** decisions where this sub opined correctly *)
  as_wrong : int;
}

type arb_row = { ar_selector : string; ar_subs : arb_sub_row list }

type branch_row = {
  br_pc : int;
  br_execs : int;
  br_taken : int;
  br_transitions : int;  (** direction changes between consecutive executions *)
  br_mispredicts : int;
}

type t = {
  design : string;
  workload : string;
  total_mispredicts : int;
  buckets : (string * int) list;
      (** attribution: component names plus the pseudo-buckets ["default"]
          (no component opined; the static not-taken fallthrough lost),
          ["frontend"] (the acted fetch decision diverged from the composite
          — RAS targets, decode corrections) and ["unattributed"] (no raw
          predictions recorded for the packet). Sums to
          [total_mispredicts]. *)
  components : component_row list;
  arbitrations : arb_row list;
  branches : branch_row list;  (** top-N by mispredict count, descending *)
  intervals : Interval.point list;
  interval_width : int;
  squashed_packets : int;
  perf : (string * int) list;
}

val attributed : t -> int
(** Sum of all attribution buckets. *)

val to_json : t -> Json.t
val to_csv : t -> string

val summary : t -> string
(** One line for telemetry event streams. *)

val render : t -> string
(** Multi-section human-readable tables. *)
