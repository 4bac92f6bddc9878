(** Integer and boolean environment knobs with loud failure.

    Every [COBRA_*] integer variable goes through {!int_var}, every on/off
    one through {!bool_var}: a set-but-malformed value raises [Failure]
    naming the variable and the bad value instead of silently running with
    the default — a typo'd sweep knob must not produce confidently wrong
    measurements. *)

val int_var : ?min:int -> string -> default:int -> int
(** [int_var ?min name ~default] reads [name] from the environment.
    Unset — or set to the empty string, the [FOO= cmd] shell idiom —
    means [default]; any other non-integer value (after trimming) or one
    below [min] raises [Failure] with a message naming [name] and the
    offending value. *)

val bool_var : string -> default:bool -> bool
(** [bool_var name ~default] reads an on/off knob: [1], [true], [yes], [on]
    mean on and [0], [false], [no], [off] mean off (trimmed, any case).
    Unset or empty means [default]; any other value raises [Failure] naming
    [name] and the value. *)
