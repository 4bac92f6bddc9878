(** Paper-reported reference data: Table I's storage and descriptions,
    Fig 10's series of other systems, and the headline claims of the text.

    Fig 10 compares the three COBRA-BOOM variants against Intel Skylake and
    AWS Graviton measurements. Those series cannot be re-measured here, so
    approximate per-benchmark values read off the paper's Fig 10 are
    embedded as constants and printed alongside our measured series, in the
    same spirit as the paper's own caveat ("comparison against Skylake and
    Graviton is approximate due to different ISAs"). *)

type table_1_row = {
  storage_kb : float;  (** the storage column *)
  description : string list;  (** the description column, one line each *)
}

val table_1 : (string * table_1_row) list
(** Table I's reported storage and description of each evaluated design,
    keyed by design name. *)

type series = {
  system : string;
  mpki : (string * float) list;  (** benchmark -> branch MPKI *)
  ipc : (string * float) list;
}

val skylake : series
val graviton : series

val benchmarks : string list
(** Fig 10 benchmark order. *)

val paper_claims : (string * string) list
(** Headline numbers quoted in the paper text, keyed by experiment id —
    used by EXPERIMENTS.md and the bench output. *)
