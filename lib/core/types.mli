(** Core value types of the COBRA predictor interface.

    A predictor pipeline is queried with a fetch PC and produces, at each
    pipeline stage, a {e prediction}: a fetch-width vector of per-slot
    {e opinions}. Opinions have optional fields so that a sub-component can
    provide a full prediction, a partial one (e.g. a BTB that only knows
    targets), or none at all — the pass-through / field-override composition
    rule of the paper (Section III-F) is realised by {!merge_opinion}. *)

type branch_kind =
  | Cond  (** conditional direct branch *)
  | Jump  (** unconditional direct jump *)
  | Call  (** direct call (pushes a return address) *)
  | Ret  (** return (target comes from a return-address stack) *)
  | Ind  (** other indirect jump *)

val pp_branch_kind : Format.formatter -> branch_kind -> unit
val equal_branch_kind : branch_kind -> branch_kind -> bool

val is_unconditional : branch_kind -> bool
(** Everything except {!Cond}. *)

val branch_kind_to_int : branch_kind -> int
(** Stable 3-bit encoding, for metadata packing. *)

val branch_kind_of_int : int -> branch_kind
(** Inverse of {!branch_kind_to_int}; raises [Invalid_argument] otherwise. *)

type resolved = {
  r_is_branch : bool;  (** whether this slot holds a control-flow instruction *)
  r_kind : branch_kind;
  r_taken : bool;
  r_target : int;
}
(** Outcome of one fetch-packet slot, either as predicted (speculative
    events) or as resolved by the backend (update events). *)

val no_branch : resolved
(** A slot known to hold no control-flow instruction. *)

val resolved_branch : kind:branch_kind -> taken:bool -> target:int -> resolved
(** Not-taken outcomes with a zero target are interned: the returned record
    may be physically shared, but is always structurally correct. *)

val cond_branch : resolved -> bool
(** The slot resolved as a conditional branch — the per-slot test of every
    direction component's update loop, kept free of polymorphic compare. *)

type opinion = {
  o_branch : bool option;  (** is there a branch in this slot? *)
  o_kind : branch_kind option;
  o_taken : bool option;
  o_target : int option;
}

val empty_opinion : opinion
val full_opinion : kind:branch_kind -> taken:bool -> target:int -> opinion
val direction_opinion : taken:bool -> opinion
(** Predicts a conditional branch direction without knowing the target. *)

val direction_hint : taken:bool -> opinion
(** An opinion with only [o_taken] set — the common output of counter-table
    components. Returns one of two preallocated records, so the per-slot hot
    path does not cons. *)

val merge_opinion : strong:opinion -> weak:opinion -> opinion
(** Field-wise override: [strong]'s set fields win, unset fields fall
    through to [weak]. *)

val replay_taken_pred : bool option -> branch_kind -> bool
(** The replay verdict on a one-branch packet, from the final stage's
    slot-0 opinion. [replay_taken_pred dir kind] is the predicted
    direction: the opinion's [dir], or taken for an unconditional [kind]
    when it has none. *)

val replay_wrong :
  branch_kind -> taken_pred:bool -> target_pred:int option -> taken:bool -> target:int -> bool
(** Whether a branch of [kind] predicted [taken_pred] with target
    [target_pred] was mispredicted, against the actual [taken] and
    [target] (negative when the trace does not know it): a direction
    mismatch, or a taken non-return unconditional whose known target
    differs from the predicted one (-1 when the opinion has none). *)

type prediction = opinion array
(** One opinion per fetch-packet slot. *)

val unconditional_in : prediction -> int -> bool
(** Whether the incoming prediction already identifies slot [i] as an
    unconditional branch — direction providers use this to keep quiet
    rather than override a known always-taken direction (jumps, calls,
    returns). *)

val no_prediction : width:int -> prediction
val merge : strong:prediction -> weak:prediction -> prediction

val equal_opinion : opinion -> opinion -> bool
val equal_prediction : prediction -> prediction -> bool

type next_fetch = {
  taken_slot : int option;  (** first slot predicted as a taken branch *)
  packet_len : int;  (** slots actually consumed by this packet *)
  next_pc : int option;  (** redirect target; [None] means fall through *)
}

val next_fetch : prediction -> pc:int -> max_len:int -> next_fetch
(** Interpret a composite prediction as a fetch redirection decision: the
    first slot whose opinion is a taken branch with a known target ends the
    packet. A taken opinion without a target cannot redirect and is treated
    as fall-through. *)

val packet_len : prediction -> max_len:int -> int
(** [(next_fetch pred ~pc ~max_len).packet_len], without building the
    decision. *)

val direction_bits : prediction -> packet_len:int -> bool list
(** The conditional-branch direction bits this prediction pushes into a
    global history register, oldest first: one bit per slot believed to hold
    a conditional branch, truncated after the first taken slot. *)

val direction_bits_into : prediction -> packet_len:int -> bool array -> int
(** {!direction_bits} written into the front of a buffer of at least
    [min packet_len (Array.length pred)] cells; returns the bit count. *)

val pp_prediction : Format.formatter -> prediction -> unit
