(** The environment: every [COBRA_*] knob, declared once.

    Each knob below has a name, a parser, a default and a meaning, and
    every read of a [COBRA_*] variable goes through {!get}. Reads happen
    per call, so tests can set and unset knobs. Unset — or set to the empty
    string, the [FOO= cmd] shell idiom — means the default; a set but
    malformed value raises [Failure] naming the variable and the value
    instead of silently running with the default: a typo'd sweep knob must
    not produce confidently wrong measurements. A misspelt name is the
    same mistake; {!check} refuses it. *)

type 'a t
(** A knob whose value is an ['a]. *)

val get : 'a t -> 'a
(** The knob's current value, parsed, or its default. Integer knobs take a
    trimmed decimal integer, on/off knobs [1], [true], [yes], [on] or [0],
    [false], [no], [off] (trimmed, any case), path knobs any non-blank
    value; anything else raises [Failure] naming the variable and the
    value, as does an integer below the knob's minimum. *)

(** {1 The knobs}

    [cache] is [COBRA_CACHE], and so on; {!knobs} gives each one's default
    and meaning. [jobs], [insns] and [warm_cache] refuse values below 1;
    [progress] defaults to whether stderr is a tty; [events] is [None]
    when unset. *)

val cache : bool t
val cache_dir : string t
val events : string option t
val insns : int t
val jobs : int t
val progress : bool t
val seed : int t
val stats : bool t
val stats_dir : string t
val warm_cache : int t

(** {1 The registry} *)

type knob = {
  name : string;
  default : string;  (** as documented, e.g. ["on"] or ["recommended domain count"] *)
  doc : string;  (** what it controls *)
}

val knobs : knob list
(** Every knob above, in name order: [cobra list env] prints it, and a
    test checks README's table against it. *)

val check : unit -> unit
(** Check the whole environment at once: raises [Failure] naming every set
    [COBRA_*] variable that is not a knob, or else the first knob whose
    value is malformed. [cobra] and the bench harness call it before any
    work. *)

val with_set : (string * string) list -> (unit -> 'a) -> 'a
(** [with_set [(name, value); ...] f] runs [f] with those variables set,
    then puts back the values they had; one that was unset comes back
    empty, which every knob reads as unset. *)
