(** Partially-tagged global-history-indexed counter table.

    The direction predictor of the paper's "B2" design: a single table of
    2-bit counters indexed by a hash of PC and global history, with short
    partial tags to suppress aliased predictions. On a tag hit the component
    contributes a direction; on a miss it stays silent and the backing
    bimodal table shows through.

    The table is a one-table {!Tagged} bank without salts, payload [ctr].
    Unlike TAGE it allocates on every miss. *)

type config = {
  name : string;
  latency : int;
  entries : int;  (** power of two *)
  tag_bits : int;
  counter_bits : int;
  history_length : int;
  fetch_width : int;
}

val default : name:string -> config
(** 2K entries, 7-bit tags, 2-bit counters, 16 bits of history, latency 3. *)

val make : config -> Cobra.Component.t
