(** Design-space sweeps and extension ablations beyond the paper's own
    experiments — the kind of study the framework exists to make cheap.
    Each renders a report. *)

type t = {
  name : string;  (** what [cobra sweep] calls it; the bench section is [sweep_<name>] *)
  run : ?insns:int -> unit -> string;
}

val all : t list
(** Every sweep, in the order [cobra sweep] and the bench harness run them:
    - [storage]: accuracy vs storage budget, TAGE table sizes from 2^7 to
      2^12 entries per bank on gcc ("predictor accuracy improves
      substantially with storage budget", paper III-D citing Michaud et
      al.);
    - [ubtb]: TAGE-L with and without its 1-cycle uBTB on dhrystone — the
      low-latency-head design point of Section II;
    - [fetch-width]: 1/2/4/8-wide fetch with a TAGE>BTB>BIM pipeline — the
      superscalar prediction motivation of Section II;
    - [indexing]: HBIM indexed by PC vs global history vs their hash, on
      the correlated kernel (the parameterised indexing of Section III-G1);
    - [ittage]: perlbench-like interpreter dispatch with and without an
      ITTAGE component over TAGE-L;
    - [ras]: return-address-stack checkpoint repair on call-heavy
      workloads;
    - [sc]: TAGE-L vs [SC_3 > TAGE-L], the statistical corrector the
      paper leaves out of its simplified TAGE-SC-L-like design;
    - [core-size]: the IPC gap between TAGE-L and B2 on gcc as the host
      core grows from 1-wide to the paper's 4-wide and an 8-wide
      configuration (paper IV-C) — deeper speculation makes mispredicts
      dearer;
    - [families]: the CBP-era predictor families of Section II-A (GEHL,
      perceptron, GShare, YAGS, TAGE) over the same BTB;
    - [attribution]: per-design mispredict attribution buckets on gcc, via
      [Cobra_stats]; its designs run through the pool like every other
      sweep's, but their statistics reports are not cached. *)
