(** Summary statistics for report aggregation. *)

val harmonic_mean : float list -> float
(** Harmonic mean; 0 when the list is empty, ignores non-positive entries the
    way SPEC reporting does (they would be measurement errors). *)

val mean : float list -> float

val percent_delta : baseline:float -> float -> float
(** [(v - baseline) / baseline * 100]. *)

val mpki : misses:int -> instructions:int -> float
(** Misses per kilo-instruction. *)
