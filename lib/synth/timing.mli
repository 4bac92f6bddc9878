(** Crude critical-path model (paper Section VI-A).

    The paper's original 2-cycle TAGE arbitration created a critical path —
    table read, tag compare and final arbitration in one cycle — and was
    fixed by adding a pipeline stage. This model estimates the delay of a
    sub-component's per-stage work in FO4-derived picoseconds and checks it
    against the technology's clock target, reproducing that design feedback
    analytically. *)

type path = {
  description : string;
  delay_ps : int;
  meets_clock : bool;
}

val table_read_path : stages:int -> tag_bits:int -> arbitration_inputs:int -> unit -> path
(** Delay of a tagged-table component that spreads SRAM read, tag compare
    and arbitration over [stages] cycles: the reported delay is the worst
    single-stage slice. *)

val tage_path : latency:int -> tables:int -> tag_bits:int -> unit -> path
(** The paper's case: a [latency]-cycle TAGE with [tables] tagged tables. *)
