(** Deterministic pseudo-random numbers (splitmix64).

    Every stochastic piece of the framework — synthetic workloads, TAGE
    allocation throttling, cache-model noise — draws from an explicit [Rng.t]
    so that whole-simulation runs are reproducible from a single seed. *)

type t

val create : seed:int -> t
val copy : t -> t

val state : t -> int64
(** The raw splitmix64 state, for serializing an [Rng.t] into a state
    slab (split across two <=32-bit cells by the owner). *)

val set_state : t -> int64 -> unit
(** Inverse of {!state}: resume from a serialized state. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound); [bound >= 1]. *)

val bool : t -> bool
val chance : t -> float -> bool
(** [chance t p] is true with probability [p]. *)

val float : t -> float -> float
(** Uniform in [0, bound). *)
