(** Dynamic instruction traces.

    The interface between workloads and the core model: a {e stream} of
    retired-path instruction events, pulled one at a time. The core model
    reads it through a {!Window}, which numbers the events by their
    position in the stream and keeps the uncommitted ones, so that a
    refetch after a squash or a flush is one rewind to a position. *)

type insn_class = Alu | Mul | Div | Load | Store | Fp | Nop

type branch_info = {
  kind : Cobra.Types.branch_kind;
  taken : bool;
  target : int;
      (** for direct branches the static target (even when not taken); for
          indirect branches the dynamic target *)
}

type event = {
  pc : int;
  cls : insn_class;
  addr : int option;  (** byte address for loads/stores *)
  srcs : int list;  (** source registers, for dataflow timing *)
  dst : int option;
  branch : branch_info option;
  next_pc : int;
}

val plain : pc:int -> cls:insn_class -> event
(** A non-branch event with no operands, falling through to [pc + 4]. *)

val branch_exn : ?who:string -> event -> branch_info
(** The event's branch info, or [Failure] naming the caller ([who]) and the
    event's PC when the event is not a branch — a diagnosable error instead
    of a bare [Option.get] crash. *)

val is_short_forward_branch : event -> bool
(** A conditional direct branch whose target lies at most 32 bytes forward —
    the "hammock" shape the paper's Section VI-C optimisation predicates. *)

val exec_latency : insn_class -> int
(** Fixed execution latency of a class (loads add cache latency on top). *)

type stream = unit -> event option
(** Pull-based event source; [None] = program finished. *)

module Window : sig
  (** A rewindable window over a stream. Events are numbered from 0 in
      stream order. The window holds every event from its {e base} on; the
      {e cursor} is the position of the next event {!next} delivers. Each
      event is pulled from the source once, however often it is delivered. *)

  type t

  val create : stream -> t
  (** Base and cursor at 0. *)

  val peek : t -> event option
  (** The event at the cursor, without moving it; [None] once the stream
      has ended. *)

  val next : t -> event option
  (** The event at the cursor, moving the cursor past it. *)

  val position : t -> int
  (** The cursor. *)

  val rewind : t -> int -> unit
  (** [rewind w p] moves the cursor back to [p], so that the events from
      [p] on are delivered again. [Invalid_argument] when [p] is below the
      base or past the cursor. *)

  val release : t -> int -> unit
  (** [release w p] moves the base up to [p]: the events below it can no
      longer be rewound to, and their slots are reused.
      [Invalid_argument] when [p] is below the base or past the cursor. *)
end

val of_list : event list -> stream
val take : stream -> int -> event list
