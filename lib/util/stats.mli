(** Streaming statistics for performance counters and report aggregation. *)

module Running : sig
  (** Single-pass mean / variance accumulator (Welford). *)

  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  val variance : t -> float
end

module Ratio : sig
  (** Hit/total ratio counter (accuracies, rates per kilo-event). *)

  type t

  val create : unit -> t
  val hit : t -> unit
  val miss : t -> unit
  val add : t -> hit:bool -> unit
  val hits : t -> int
  val total : t -> int
  val rate : t -> float
  (** [hits / total]; 0 when empty. *)
end

val harmonic_mean : float list -> float
(** Harmonic mean; 0 when the list is empty, ignores non-positive entries the
    way SPEC reporting does (they would be measurement errors). *)

val mean : float list -> float

val percent_delta : baseline:float -> float -> float
(** [(v - baseline) / baseline * 100]. *)

val mpki : misses:int -> instructions:int -> float
(** Misses per kilo-instruction. *)
