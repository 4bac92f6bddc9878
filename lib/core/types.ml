type branch_kind = Cond | Jump | Call | Ret | Ind

let pp_branch_kind ppf k =
  Format.pp_print_string ppf
    (match k with Cond -> "cond" | Jump -> "jump" | Call -> "call" | Ret -> "ret" | Ind -> "ind")

let equal_branch_kind (a : branch_kind) b = a = b

let is_unconditional = function Cond -> false | Jump | Call | Ret | Ind -> true

let branch_kind_to_int = function Cond -> 0 | Jump -> 1 | Call -> 2 | Ret -> 3 | Ind -> 4

let branch_kind_of_int = function
  | 0 -> Cond
  | 1 -> Jump
  | 2 -> Call
  | 3 -> Ret
  | 4 -> Ind
  | n -> invalid_arg (Printf.sprintf "Types.branch_kind_of_int: %d" n)

type resolved = { r_is_branch : bool; r_kind : branch_kind; r_taken : bool; r_target : int }

let no_branch = { r_is_branch = false; r_kind = Cond; r_taken = false; r_target = 0 }

(* Interned not-taken outcomes, one per kind: [resolved] records are
   immutable and never compared physically, and the hot fire/resolve paths
   build this exact shape for every branch slot that does not redirect. *)
let not_taken_cond = { r_is_branch = true; r_kind = Cond; r_taken = false; r_target = 0 }
let not_taken_jump = { not_taken_cond with r_kind = Jump }
let not_taken_call = { not_taken_cond with r_kind = Call }
let not_taken_ret = { not_taken_cond with r_kind = Ret }
let not_taken_ind = { not_taken_cond with r_kind = Ind }

(* Match, not polymorphic [=]: component update loops test this per slot. *)
let cond_branch r =
  r.r_is_branch && match r.r_kind with Cond -> true | Jump | Call | Ret | Ind -> false

let resolved_branch ~kind ~taken ~target =
  if (not taken) && target = 0 then
    match kind with
    | Cond -> not_taken_cond
    | Jump -> not_taken_jump
    | Call -> not_taken_call
    | Ret -> not_taken_ret
    | Ind -> not_taken_ind
  else { r_is_branch = true; r_kind = kind; r_taken = taken; r_target = target }

type opinion = {
  o_branch : bool option;
  o_kind : branch_kind option;
  o_taken : bool option;
  o_target : int option;
}

let empty_opinion = { o_branch = None; o_kind = None; o_taken = None; o_target = None }

let full_opinion ~kind ~taken ~target =
  { o_branch = Some true; o_kind = Some kind; o_taken = Some taken; o_target = Some target }

let direction_opinion ~taken =
  { o_branch = Some true; o_kind = Some Cond; o_taken = Some taken; o_target = None }

(* Preallocated direction-only opinions for the per-slot hot path. Safe to
   share: opinions are immutable, and the only physical-equality test in the
   codebase is against [empty_opinion], which these are not. *)
let hint_taken = { empty_opinion with o_taken = Some true }
let hint_not_taken = { empty_opinion with o_taken = Some false }
let direction_hint ~taken = if taken then hint_taken else hint_not_taken

let first_some a b = match a with Some _ -> a | None -> b

let merge_opinion ~strong ~weak =
  {
    o_branch = first_some strong.o_branch weak.o_branch;
    o_kind = first_some strong.o_kind weak.o_kind;
    o_taken = first_some strong.o_taken weak.o_taken;
    o_target = first_some strong.o_target weak.o_target;
  }

(* Two functions returning a bool each rather than one returning the pair:
   without flambda the pair would be boxed on every replayed branch. *)
let replay_taken_pred dir kind = match dir with Some t -> t | None -> is_unconditional kind

let replay_wrong kind ~taken_pred ~target_pred ~taken ~target =
  taken_pred <> taken
  || taken
     && is_unconditional kind
     && (not (equal_branch_kind kind Ret))
     && target >= 0
     && (match target_pred with Some v -> v | None -> -1) <> target

type prediction = opinion array

let unconditional_in (pred : prediction) i =
  match pred.(i).o_kind with Some k -> is_unconditional k | None -> false

let no_prediction ~width = Array.make width empty_opinion

let merge ~strong ~weak =
  if Array.length strong <> Array.length weak then
    invalid_arg "Types.merge: prediction width mismatch";
  (* Silent slots share the [empty_opinion] record, so physical equality is
     a safe and very common fast path. *)
  Array.map2
    (fun s w ->
      if s == empty_opinion then w
      else if w == empty_opinion then s
      else merge_opinion ~strong:s ~weak:w)
    strong weak

let equal_opinion a b =
  a.o_branch = b.o_branch && a.o_kind = b.o_kind && a.o_taken = b.o_taken
  && a.o_target = b.o_target

let equal_prediction a b =
  Array.length a = Array.length b && Array.for_all2 equal_opinion a b

type next_fetch = { taken_slot : int option; packet_len : int; next_pc : int option }

(* Pattern matches rather than [= Some true]: polymorphic equality is an
   out-of-line C call, and these predicates run per slot per cycle. *)
let is_taken_slot op =
  (match op.o_branch with Some true -> true | Some false | None -> false)
  && (match op.o_taken with Some true -> true | Some false | None -> false)
  && op.o_target != None

(* All state is threaded through the arguments: an inner recursion that
   captured [pred]/[len] would allocate a closure on every call, and this
   runs per packet per stage per cycle. *)
let rec next_fetch_find pred len i =
  if i >= len then { taken_slot = None; packet_len = len; next_pc = None }
  else if is_taken_slot pred.(i) then
    { taken_slot = Some i; packet_len = i + 1; next_pc = pred.(i).o_target }
  else next_fetch_find pred len (i + 1)

let next_fetch pred ~pc:_ ~max_len = next_fetch_find pred (min max_len (Array.length pred)) 0

let rec packet_len_find pred len i =
  if i >= len then len
  else if is_taken_slot pred.(i) then i + 1
  else packet_len_find pred len (i + 1)

let packet_len pred ~max_len = packet_len_find pred (min max_len (Array.length pred)) 0

let is_cond_slot op =
  (match op.o_branch with Some true -> true | Some false | None -> false)
  && match op.o_kind with None | Some Cond -> true | Some _ -> false

let taken_bit op = match op.o_taken with Some true -> true | Some false | None -> false

let rec direction_bits_loop pred len i acc =
  if i >= len then List.rev acc
  else
    let op = pred.(i) in
    let acc = if is_cond_slot op then taken_bit op :: acc else acc in
    if is_taken_slot op then List.rev acc else direction_bits_loop pred len (i + 1) acc

let direction_bits pred ~packet_len =
  direction_bits_loop pred (min packet_len (Array.length pred)) 0 []

let rec direction_bits_into_loop pred len i out n =
  if i >= len then n
  else
    let op = pred.(i) in
    let n =
      if is_cond_slot op then begin
        out.(n) <- taken_bit op;
        n + 1
      end
      else n
    in
    if is_taken_slot op then n else direction_bits_into_loop pred len (i + 1) out n

let direction_bits_into pred ~packet_len out =
  direction_bits_into_loop pred (min packet_len (Array.length pred)) 0 out 0

let pp_option pp ppf = function
  | None -> Format.pp_print_string ppf "-"
  | Some v -> pp ppf v

let pp_opinion ppf op =
  Format.fprintf ppf "{br=%a kind=%a taken=%a tgt=%a}"
    (pp_option Format.pp_print_bool) op.o_branch
    (pp_option pp_branch_kind) op.o_kind
    (pp_option Format.pp_print_bool) op.o_taken
    (pp_option (fun ppf -> Format.fprintf ppf "0x%x")) op.o_target

let pp_prediction ppf pred =
  Format.fprintf ppf "[%a]"
    (Format.pp_print_seq ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ") pp_opinion)
    (Array.to_seq pred)
