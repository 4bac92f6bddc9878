(** BRISC interpreter producing dynamic traces.

    Executes an assembled {!Program.t} architecturally (registers + a sparse
    word-addressed memory) and emits one {!Trace.event} per retired
    instruction. This is the execution-driven stand-in for the paper's
    FPGA-hosted SPEC runs: branch directions and memory addresses come from
    real program state, not from a statistical model. *)

type t

val create : Program.t -> t
(** Fresh machine: PC at the program base, registers zero, stack pointer
    preset, memory empty. *)

val pc : t -> int
val halted : t -> bool
val reg : t -> Insn.reg -> int
val poke : t -> addr:int -> int -> unit
(** Pre-load a memory word (workload data initialisation). *)

val peek : t -> addr:int -> int

val step : t -> Trace.event option
(** Execute one instruction; [None] once halted (or when the PC leaves the
    program, which halts the machine). *)

val stream : t -> Trace.stream
(** The machine as an event stream. *)

val run : t -> max_insns:int -> Trace.event list
(** Convenience for tests. *)

val static_decode : Program.t -> pc:int -> Trace.event option
(** Decode the instruction at [pc] {e without} architectural state — what a
    fetch unit sees on the wrong path: class, operand registers and static
    branch kind/target, but no direction and no dynamic (indirect) target.
    [None] outside the program image. The host core uses this to fetch real
    wrong-path instructions instead of opaque placeholders. *)
