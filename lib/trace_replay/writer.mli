(** Buffered {!Btrace} encoder plus the workload-to-trace exporter.

    The exporter pulls a workload's retired-path instruction stream,
    squeezes the non-branch instructions into per-record gap counts, and
    writes the branch records straight through the buffered encoder — the
    whole export is streaming, so every existing BRISC kernel doubles as a
    trace fixture of any size in constant memory. *)

type t

val create : ?format:Btrace.format -> string -> t
(** Opens [path] for writing (truncating). [format] defaults to
    {!Btrace.Binary}; the text form starts with {!Btrace.text_header}. *)

val add : t -> Btrace.record -> unit
(** Raises [Invalid_argument] on an invalid record (negative pc/gap). *)

val close : t -> unit
(** Flushes and closes; idempotent. *)

val with_file : ?format:Btrace.format -> string -> (t -> 'a) -> 'a
val save : ?format:Btrace.format -> string -> Btrace.record list -> unit

val export_stream :
  ?format:Btrace.format ->
  ?max_branches:int ->
  ?max_insns:int ->
  path:string ->
  Cobra_isa.Trace.stream ->
  int * int
(** Stream events into a branch trace at [path] until either bound is hit
    (at least one must be given — workload streams are infinite). Returns
    [(branches, instructions)] where [instructions] counts the stream
    through the {e last exported branch} — trailing non-branch events are
    not representable in the format and are dropped, so the pair is exactly
    what the trace itself replays to. *)

val export_workload :
  ?format:Btrace.format ->
  ?max_branches:int ->
  ?max_insns:int ->
  path:string ->
  Cobra_workloads.Suite.entry ->
  int * int
(** {!export_stream} over a fresh stream of the workload. *)
