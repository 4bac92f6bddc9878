(** ITTAGE-style indirect-target predictor. Extension component.

    Tagged tables with geometrically increasing global-history lengths, as
    in TAGE, but entries store {e target addresses} rather than direction
    counters — the structure that rescues interpreter dispatch loops whose
    indirect jumps defeat a last-target BTB. On a hit the component
    contributes existence/kind/target for the slot (direction is trivially
    taken); on a miss it stays silent and the BTB's last-target guess shows
    through. Trains at commit time on indirect branches only.

    The tables are a {!Tagged} bank, which owns their slab layout, hashes
    and fold cache: index salt [mix2 t 29], tag salt [t * 131], payload
    [target; conf], no header. *)

type table_spec = Tagged.spec = {
  history_length : int;
  index_bits : int;
  tag_bits : int;
}

type config = {
  name : string;
  latency : int;
  tables : table_spec list;  (** shortest history first *)
  confidence_bits : int;
  use_path_history : bool;
      (** index/tag with the path history instead of the direction history —
          disambiguates dispatch sites reached through unconditional control
          flow, where the direction history is silent *)
  fetch_width : int;
}

val default : name:string -> config
(** 4 tables over histories 2..24, 256 entries each, latency 3. *)

val make : config -> Cobra.Component.t
