(** Trace serialization — a CBP/championship-style interchange format.

    One event per line:
    {v
    <pc> <class> <next_pc> [B <kind> <taken> <target>] [M <addr>] [D <dst>] [S <src,src,...>]
    v}
    with all numbers in lowercase hex. Lines beginning with [#] are
    comments. This lets workload traces captured once (or imported from
    external tools) be replayed through the framework without the BRISC
    machine. *)

val save : path:string -> Trace.event list -> unit

val load : path:string -> Trace.event list
(** Raises [Failure] naming the (1-based) line number, the reason, and the
    offending line on parse errors. Negative [D]/[S] register numbers are
    rejected. *)

val load_stream : path:string -> Trace.stream
(** Loads eagerly, streams lazily. *)

val event_to_string : Trace.event -> string
val event_of_string : ?lnum:int -> string -> Trace.event option
(** [None] for blank/comment lines; [Failure] (naming [lnum] when given)
    on malformed input. *)
