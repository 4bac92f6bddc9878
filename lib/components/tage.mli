(** TAGE sub-component (paper III-G4, algorithm per Seznec 2011).

    A set of partially-tagged tables indexed by hashes of the PC with
    geometrically increasing global-history lengths. The longest-history
    matching table is the {e provider}; the next match is the {e altpred}.
    On a miss in all tables the component stays silent and the backing
    predictor below it in the topology shows through (the composite's
    [predict_in] serves as TAGE's base prediction, and its direction is
    recorded in the metadata so mis-allocation decisions can be made at
    commit time).

    The metadata field tracks, per slot, the provider and altpred tables and
    the counters read at predict time — the paper's stated use. Updates are
    commit-time only: a global-history predictor is tolerant to delayed
    updates (paper III-E).

    The tables are a {!Tagged} bank over the global history, which owns
    their slab layout, hashes and fold cache: index salt [mix2 t 17], tag
    salt [t * 7919], payload [ctr; u], and three header cells holding the
    update count and the allocation PRNG's state. *)

type table_spec = Tagged.spec = {
  history_length : int;
  index_bits : int;
  tag_bits : int;
}

type config = {
  name : string;
  latency : int;
  tables : table_spec list;  (** shortest history first *)
  counter_bits : int;
  u_bits : int;
  u_reset_period : int;  (** updates between graceful usefulness decays *)
  seed : int;  (** allocation-throttling PRNG seed *)
  fetch_width : int;
}

val default : name:string -> config
(** The paper's TAGE-L flavour: 7 tables over a 64-bit global history
    (lengths 4..64), 3-bit counters, 2-bit usefulness. *)

val storage_bits : config -> int
val make : config -> Cobra.Component.t
