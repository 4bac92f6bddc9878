(** Area model (Fig 8 / Fig 9).

    Converts the bit-accurate {!Cobra.Storage.t} reported by every
    sub-component and management structure into µm² on the modelled process,
    and provides the reference areas of the host core's other units so the
    predictor can be put in context (Fig 9). *)

type breakdown = {
  label : string;
  area_um2 : float;
}

val pipeline_breakdown : Cobra.Pipeline.t -> breakdown list
(** One entry per sub-component plus a "Meta" entry for the generated
    management structures — the Fig 8 decomposition. *)

val pipeline_total : Cobra.Pipeline.t -> float

val core_breakdown : Cobra.Pipeline.t -> breakdown list
(** The given predictor plus the non-predictor units of the 4-wide core
    (Table II): L1 caches, issue/execute, ROB and rename, register files,
    FPU, LSU — documented constants representative of a 4-wide
    out-of-order core on the modelled process. The Fig 9 decomposition. *)

val pp_breakdown : Format.formatter -> breakdown list -> unit
