(** Per-access energy estimates (paper Section VI-A future work: "the energy
    cost of continuously reading predictor SRAMs is significant").

    Every prediction reads all sub-component memories; this module estimates
    the energy of one predict and one update event for a pipeline, from the
    same storage accounting that drives the area model. *)

type t = {
  predict_pj : float;  (** energy of one fetch-packet prediction *)
  update_pj : float;  (** energy of one commit-time update *)
}

val of_pipeline : Cobra.Pipeline.t -> t

val per_kilo_instruction : Cobra.Pipeline.t -> packets_per_ki:float -> float
(** nJ per kilo-instruction at the given fetch-packet rate. *)
