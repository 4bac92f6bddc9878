(** The COBRA conditional-branch trace interchange format.

    A branch trace is the CBP/ChampSim-style ecosystem contract: one record
    per {e retired} branch — PC, resolved direction, branch kind, target —
    plus the number of non-branch instructions retired since the previous
    branch ([b_gap]), so MPKI and instructions-per-second stay computable
    without materializing the non-branch instructions themselves. Millions
    of real branches can drive a predictor pipeline directly through
    {!Replay}, without the BRISC machine or the uarch core model.

    Two concrete encodings share this record type:

    - {b binary} — magic ["COBT1"], then records until EOF. Each record is a
      tag byte (bit 0 taken, bits 1-3 kind, bit 4 target present, bit 5 gap
      present, bits 6-7 reserved zero) followed by LEB128 varints: PC, then
      target and gap when present. Typically ~3-5 bytes per branch.
    - {b text} — one record per line, [#] comments ignored:
      [<pc-hex> <T|N> <C|J|A|R|I> <target-hex|-> <gap-decimal>]. The writer
      emits a [# cobra-branch-trace v1] header line so files are
      self-identifying, but the header is not required on input.

    Both decoders reject malformed input with a [Failure] carrying the byte
    offset (binary) or line number (text) of the corruption. *)

type record = {
  b_pc : int;  (** branch instruction address; non-negative *)
  b_taken : bool;  (** resolved direction (unconditionals are taken) *)
  b_kind : Cobra.Types.branch_kind;
  b_target : int;  (** branch target, or {!no_target} when unknown *)
  b_gap : int;
      (** non-branch instructions retired between the previous branch and
          this one; the record therefore represents [b_gap + 1]
          instructions *)
}

type format = Binary | Text

val no_target : int
(** [-1]: the trace does not know this branch's target (direction-only
    traces); target mispredictions cannot be judged for such records. *)

val cond : ?gap:int -> ?target:int -> pc:int -> taken:bool -> unit -> record
(** A conditional-branch record ([gap] defaults to 0, [target] to
    {!no_target}). *)

val insns : record -> int
(** [b_gap + 1] — instructions this record represents. *)

val equal_record : record -> record -> bool
val show_record : record -> string

val validate : record -> (unit, string) result
(** Non-negative PC and gap, target [>= no_target]. Both encoders check
    this before writing. *)

val magic : string
(** The 5-byte binary-format magic, ["COBT1"]. *)

val text_header : string
(** ["# cobra-branch-trace v1"] — first line written by the text encoder. *)

(** {1 Binary codec} *)

val encode_record : Buffer.t -> record -> unit
(** Raises [Invalid_argument] when {!validate} fails. *)

(** {2 The cursor}

    A cursor is a caller-owned, mutable record that decoders fill in place,
    so that a replay reads millions of records without allocating one per
    branch. What a cursor holds is valid until the next read into it: copy
    it ({!to_record}) to keep it. *)

type cursor = {
  mutable c_pc : int;
  mutable c_taken : bool;
  mutable c_kind : Cobra.Types.branch_kind;
  mutable c_target : int;
  mutable c_gap : int;
}
(** The fields of {!record}, one for one. *)

val cursor : unit -> cursor
(** A fresh cursor (a not-taken gap-0 conditional at PC 0, no target). *)

val fill : cursor -> record -> unit
(** Copy a record into the cursor. *)

val to_record : cursor -> record
(** A fresh record with the cursor's fields. *)

val cursor_insns : cursor -> int
(** {!insns} of the record the cursor holds. *)

val decode : Bytes.t -> pos:int -> limit:int -> abs_offset:int -> cursor -> int
(** [decode bytes ~pos ~limit ~abs_offset c] decodes one record from
    [bytes.(pos .. limit-1)] into [c] and returns the bytes consumed, or
    [0] when the window ends mid-record (refill and retry; [c] is then
    untouched). It allocates nothing unless it fails. [abs_offset] is the
    stream offset of [pos], used verbatim in diagnostics. Raises [Failure]
    ["byte N: ..."] on reserved tag bits, a bad branch kind, varint
    overflow (> 63 bits) or an overlong varint encoding; only this failure
    path builds a string. *)

(** {1 Text codec} *)

val record_to_line : record -> string
(** Raises [Invalid_argument] when {!validate} fails. *)

val record_of_line : ?lnum:int -> string -> record option
(** [None] for blank and [#]-comment lines; [Failure] ["line N: ..."]
    (naming [lnum] when given) on malformed input. *)

(** {1 Conversion from retired-path instruction traces} *)

val of_stream : ?max_insns:int -> Cobra_isa.Trace.stream -> unit -> record option
(** The stream's branches as records, each crediting the non-branch events
    before it to its [gap]. Reads at most [max_insns] events (default
    unbounded); events after the last branch produce no record. *)
