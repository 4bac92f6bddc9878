(** Deterministic pseudo-random numbers (splitmix64).

    Every stochastic piece of the framework — synthetic workloads, TAGE
    allocation throttling, cache-model noise — draws from an explicit [Rng.t]
    so that whole-simulation runs are reproducible from a single seed. *)

type t

val create : seed:int -> t
val copy : t -> t

val state : t -> int64
(** The raw splitmix64 state, for serializing an [Rng.t] into a state
    slab (split across two <=32-bit cells by the owner, who steps it with
    {!advance}). *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound); [bound >= 1]. *)

val bool : t -> bool
val chance : t -> float -> bool
(** [chance t p] is true with probability [p]. *)

val float : t -> float -> float
(** Uniform in [0, bound). *)

(** {1 Stateless steps}

    The generator as functions of a raw state, for an owner that keeps the
    state in its own cells: [next t] sets the state to [advance s] and
    draws [mix (advance s)], and [chance t p] is [unit_float (next t) < p].
    They box nothing when inlined, where a draw through [t] stores a boxed
    [int64]. *)

val advance : int64 -> int64
val mix : int64 -> int64

val unit_float : int64 -> float
(** A draw as a float uniform in [0, 1). *)
