(** Program-fragment combinators shared by the workload kernels. *)

open Cobra_isa

val xorshift : state:Insn.reg -> tmp:Insn.reg -> Program.line list
(** Advance a xorshift PRNG held in [state] (clobbers [tmp]); the state
    stays a positive 30-bit value. *)

val seed_rng : state:Insn.reg -> int -> Program.line list
(** Initialise the PRNG state register (seed forced non-zero). *)

val counted_loop :
  counter:Insn.reg -> trips:int -> label:string -> body:Program.line list -> Program.line list
(** A fixed-trip-count loop: [for counter = trips downto 1 do body done],
    closed by a backward conditional branch — the shape loop predictors
    learn. *)

val forever : label:string -> body:Program.line list -> Program.line list
(** An endless outer loop (runs are bounded by the simulator's instruction
    budget). *)

val stream_of_program : ?entry:string -> ?init:(Machine.t -> unit) -> Program.t -> Trace.stream
(** Fresh machine each call, with an optional memory initialiser. *)
