(** Technology constants for the analytical physical-design model.

    The paper synthesises at 1 GHz with Cadence Genus on a commercial FinFET
    process whose PDK is unavailable; this module provides a documented,
    normalised "FinFET-class" stand-in. Absolute numbers are representative
    of published 7 nm-class figures; the area model's purpose is to
    reproduce the {e relative} breakdowns of Fig 8/9 (tagged SRAM-heavy
    structures dominate; the whole predictor is a small slice of the core),
    which depend only on ratios. *)

type t = {
  name : string;
  sram_bit_um2 : float;  (** high-density 6T bitcell area, µm² *)
  sram_array_efficiency : float;  (** bitcell area / macro area *)
  sram_macro_overhead_um2 : float;  (** fixed periphery per macro *)
  flop_um2 : float;  (** scan flop, µm² *)
  nand2_um2 : float;  (** NAND2-equivalent gate, µm² *)
  target_clock_ps : int;  (** 1 GHz *)
  fo4_ps : int;  (** fanout-of-4 delay *)
  sram_read_ps : int;  (** single-cycle SRAM read, including setup *)
  sram_read_pj_per_bit : float;
  flop_read_pj_per_bit : float;
}

val default : t
