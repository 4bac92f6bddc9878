(** Chunked streaming decoder for {!Btrace} files.

    The reader owns one fixed-size byte buffer (default 64 KiB) that it
    refills from the file as records are consumed — a multi-million-branch
    trace replays in constant memory, never materialized as a list, and
    through {!read} a binary trace allocates nothing per record. The
    format (binary vs text) is sniffed from the {!Btrace.magic} prefix.

    Every decode error is a [Failure] prefixed with the file path and
    carrying the byte offset (binary) or line number (text) of the
    corruption, so a poisoned trace is diagnosable and rejectable without
    taking the caller down. *)

type t

val format : t -> Btrace.format
val path : t -> string

val read : t -> Btrace.cursor -> bool
(** [read t c] fills [c] with the next record and returns [true], or
    returns [false] at end of trace. This is the replay path: a binary
    read allocates nothing (a text read parses its line as before), and
    what [c] holds is valid until the next read into it. Raises [Failure]
    on malformed input: truncated final record, corrupt tag byte, varint
    overflow, malformed text line, or a text line longer than the buffer;
    diagnostics are built only on that path. *)

val next : t -> Btrace.record option
(** {!read} into a fresh cursor, copied out as a fresh record: the
    convenience behind {!fold} and {!load}, not the replay path. *)

val offset : t -> int
(** Byte offset of the next unconsumed input byte. *)

val seek : t -> int -> unit
(** Reposition the stream to an absolute byte offset previously obtained
    from {!offset} (record boundaries are the caller's responsibility —
    used with pipeline snapshots to resume a replay mid-trace). Discards
    the buffered window; [line] keeps counting from its current value. *)

val line : t -> int
(** Lines consumed so far (text format; 0 for binary). *)

val close : t -> unit
(** Idempotent. *)

val with_file : ?buffer_size:int -> string -> (t -> 'a) -> 'a
(** Opens the file and sniffs its format, applies, and always closes.
    [buffer_size] is clamped to at least 512 bytes (a record and a text
    line must fit in one window). Raises [Sys_error] when the file cannot
    be opened. *)

val fold : ?buffer_size:int -> string -> init:'a -> f:('a -> Btrace.record -> 'a) -> 'a
(** Stream the whole file through [f] in constant memory. *)

val load : ?buffer_size:int -> ?limit:int -> string -> Btrace.record list
(** Materializes up to [limit] records (default: all) — test and
    small-fixture convenience, not the replay path. *)

type detected = Branch_binary | Branch_text | Other

val detect : string -> detected
(** Sniff a file: the binary magic, the {!Btrace.text_header} line, or a
    first non-comment line that parses as a record mean a branch trace;
    anything else (including an unreadable path) is [Other] — the hook the
    CLI uses to distinguish branch traces from retired-path instruction
    traces. *)
