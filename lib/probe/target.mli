(** Probe targets: predictors of {e declared} geometry paired with the
    analytical response an ideal implementation of that geometry must show
    on each probe. Fidelity here means semantics-vs-theory — unlike the
    conformance kit's impl-vs-reimpl lockstep — so a predictor that is
    internally self-consistent but mis-sized still fails (see the
    [GSHARE!missized] demo). *)

(** How the measured accuracy-vs-level series must behave. *)
type expect =
  | Edge of int
      (** falling capacity edge: accuracy near-perfect strictly below this
          level and collapsed (< 0.90) from it on — the measured edge must
          equal the predicted one *)
  | Zero_miss of int
      (** the first level with any post-warmup mispredicts at all *)
  | Rising of int  (** first level whose accuracy reaches 0.89 *)
  | Curve of { levels : int list; model : int -> float; tol : float }
      (** exact per-level accuracy model (e.g. the aliasing fold model) *)
  | Envelope of { lo : int; hi : int }
      (** capacity edge anywhere in (lo, hi] — for tagged tables whose
          replacement policy blurs the exact edge *)
  | Flat of { acc : float; tol : float }
      (** level-independent accuracy (e.g. static predictors on balanced
          streams) *)
  | Informational
      (** measured and reported, never failed — no analytical model is
          claimed for this target/probe pair *)

type t = {
  t_name : string;
  t_kind : string option;
      (** the {!Cobra_components.Catalogue} kind a component target probes;
          [None] for a design *)
  t_family : string;
  t_doc : string;
  t_make : unit -> Cobra.Topology.t;
  t_config : Cobra.Pipeline.config;
  t_expect : string -> expect;  (** probe name -> expectation *)
}

val pipeline : t -> Cobra.Pipeline.t
(** Fresh pipeline elaborated from the target's topology and config. *)

val components : t list
(** At least one target per {!Cobra_components.Catalogue} kind. *)

val designs : t list

val all : t list
(** [components @ designs] — the [cobra probe --all] matrix rows. *)

val demos : t list
(** Deliberately mis-parameterized targets (declared geometry is a lie);
    the oracle must catch them. *)

val names : string list

val find : string -> (t, string) result
(** Case-insensitive over [all @ demos]; the error lists valid names. *)

val find_exn : string -> t

val counter_phase_edge : counter_bits:int -> int
(** First phase-grid level where [1 - 2^(c-1)/p >= 0.89] — exposed so tests
    can assert the bimodal phase model. *)

val phase_grid : int list

val alias_model : index_bits:int -> int -> float
(** Exact expected accuracy of a PC-indexed 2-bit counter table of
    [2^index_bits] entries on the alias probe at a given site count. *)
