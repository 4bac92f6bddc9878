(** Performance counters collected by a core-model run — the out-of-band
    profiling data of the paper's FireSim evaluation. *)

type t = {
  mutable cycles : int;
  mutable instructions : int;  (** committed program instructions *)
  mutable branches : int;  (** committed branches of any kind *)
  mutable cond_branches : int;
  mutable mispredicts : int;  (** resolution-time mispredictions *)
  mutable cond_mispredicts : int;
  mutable misfetches : int;  (** predecode-corrected fetch redirects *)
  mutable history_divergences : int;
  mutable replays : int;  (** fetch replays forced by history repair *)
  mutable flushes : int;  (** full pipeline flushes from mispredicts *)
  mutable fetch_packets : int;
  mutable wrong_path_packets : int;
  mutable icache_stall_cycles : int;
  mutable frontend_stall_cycles : int;
}

val create : unit -> t
val ipc : t -> float
val mpki : t -> float
(** Branch mispredictions per kilo-instruction. *)

val branch_accuracy : t -> float
(** Fraction of committed branches not mispredicted. *)

val counters : t -> (string * int) list
(** Every raw counter as a stable [(name, value)] list, for export. *)

val of_counters : (string * int) list -> t option
(** The inverse of {!counters}: [Some] the counters of a list that names
    every counter once, in {!counters}' order; [None] otherwise. *)

val pp : Format.formatter -> t -> unit
