(** Emitters for the paper's tables. *)

val table_1 : unit -> string
(** Table I: parameters and storage of the three designs — paper values
    next to this implementation's bit-accurate accounting. *)

val table_2 : unit -> string
(** Table II: the evaluated core configuration, {!Cobra_uarch.Config.default}. *)

val table_3 : unit -> string
(** Table III: evaluated systems for the SPECint17 comparison. *)

val table_attribution : ?insns:int -> unit -> string
(** Per-component mispredict attribution (plus arbitration tallies when the
    design has a selector), measured by a [Cobra_stats] collector riding a
    hardware-guided run of the Tourney design on gcc. *)
