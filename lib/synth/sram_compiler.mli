(** SRAM macro mapping.

    The paper maps synchronous predictor memories onto the SRAMs available
    in the technology (Section V-A); this module performs the same step
    analytically: a logical memory of [depth x width] with a port count is
    split into macros no larger than the compiler's maximum, and each macro
    costs bitcell area (scaled by array efficiency) plus fixed periphery.
    Dual-ported macros pay the classic ~2x cell-area penalty. *)

type spec = {
  depth : int;
  width : int;
  ports : int;  (** 1 = single-ported, 2 = dual-ported *)
}

type result = {
  macros : int;
  area_um2 : float;
  read_energy_pj : float;  (** energy per full-width read *)
}

val map : spec -> result

val area_of_bits : ?ports:int -> int -> float
(** Convenience: map a flat bit count as a square-ish single macro group. *)
