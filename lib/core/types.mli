(** Core value types of the COBRA predictor interface.

    A predictor pipeline is queried with a fetch PC and produces, at each
    pipeline stage, a {e prediction}: a fetch-width vector of per-slot
    {e opinions}. Opinions have optional fields so that a sub-component can
    provide a full prediction, a partial one (e.g. a BTB that only knows
    targets), or none at all — the pass-through / field-override composition
    rule of the paper (Section III-F) is realised by {!merge_opinion}.

    [opinion], [prediction] and [merge_opinion] are the specification: the
    golden models of the conformance kit speak them. Components, the
    composer and both engines work on their int encoding, {!Row}, which
    decodes to them. *)

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

val merge_opinion : strong:opinion -> weak:opinion -> opinion
(** Field-wise override: [strong]'s set fields win, unset fields fall
    through to [weak]. *)

val replay_taken_pred : branch_kind -> dir_known:bool -> dir:bool -> bool
(** The replay verdict on a one-branch packet, from the final stage's
    slot-0 opinion. [replay_taken_pred kind ~dir_known ~dir] is the
    predicted direction: the opinion's [dir] when it knows one, else taken
    for an unconditional [kind]. *)

val replay_wrong :
  branch_kind ->
  taken_pred:bool ->
  target_known:bool ->
  target_pred:int ->
  taken:bool ->
  target:int ->
  bool
(** Whether a branch of [kind] predicted [taken_pred] with target
    [target_pred] (when [target_known]) was mispredicted, against the
    actual [taken] and [target] (negative when the trace does not know it):
    a direction mismatch, or a taken non-return unconditional whose known
    target the opinion does not predict. *)

type outcomes
(** A table of interned branch outcomes, one per replay simulator. *)

val outcomes : unit -> outcomes

val outcome : outcomes -> kind:branch_kind -> taken:bool -> target:int -> resolved
(** [resolved_branch ~kind ~taken ~target], interned in the table (a
    not-taken outcome with a zero target is {!resolved_branch}'s own shared
    record): [resolved] records are immutable and shared, so a simulator
    that looks up its per-branch outcomes here allocates only the first
    time it sees a (kind, taken, target) key, and a replay over a program's
    finite set of branch targets reaches a steady state that allocates
    nothing. *)

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

val pp_prediction : Format.formatter -> prediction -> unit
