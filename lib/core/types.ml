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
let replay_taken_pred kind ~dir_known ~dir = if dir_known then dir else is_unconditional kind

let replay_wrong kind ~taken_pred ~target_known ~target_pred ~taken ~target =
  taken_pred <> taken
  || taken
     && is_unconditional kind
     && (not (equal_branch_kind kind Ret))
     && target >= 0
     && ((not target_known) || target_pred <> target)

(* Open addressing over a power-of-two table; [no_branch] marks an empty
   cell, since every interned outcome is a branch. *)
type outcomes = { mutable cells : resolved array; mutable count : int }

let outcomes () = { cells = Array.make 64 no_branch; count = 0 }

let outcome_hash ~kind ~taken ~target =
  let h = ((target lxor (target lsr 29)) * 0x2545F491) + (2 * branch_kind_to_int kind) in
  let h = if taken then h + 1 else h in
  h lxor (h lsr 17)

(* Arguments are threaded, not captured: a local closure would be
   allocated per lookup. *)
let rec outcome_probe cells mask i ~kind ~taken ~target =
  let r = cells.(i) in
  if (not r.r_is_branch)
     || r.r_target = target
        && r.r_taken = taken
        && branch_kind_to_int r.r_kind = branch_kind_to_int kind
  then i
  else outcome_probe cells mask ((i + 1) land mask) ~kind ~taken ~target

(* The cell holding the outcome, or the empty cell where it belongs. *)
let outcome_cell cells ~kind ~taken ~target =
  let mask = Array.length cells - 1 in
  outcome_probe cells mask (outcome_hash ~kind ~taken ~target land mask) ~kind ~taken ~target

let outcome o ~kind ~taken ~target =
  if (not taken) && target = 0 then resolved_branch ~kind ~taken ~target
  else begin
    let i = outcome_cell o.cells ~kind ~taken ~target in
    let r = o.cells.(i) in
    if r.r_is_branch then r
    else begin
      let r = { r_is_branch = true; r_kind = kind; r_taken = taken; r_target = target } in
      o.cells.(i) <- r;
      o.count <- o.count + 1;
      if 2 * o.count > Array.length o.cells then begin
        let old = o.cells in
        o.cells <- Array.make (2 * Array.length old) no_branch;
        Array.iter
          (fun (r : resolved) ->
            if r.r_is_branch then
              o.cells.(outcome_cell o.cells ~kind:r.r_kind ~taken:r.r_taken ~target:r.r_target)
              <- r)
          old
      end;
      r
    end
  end

type prediction = opinion array

let unconditional_in (pred : prediction) i =
  match pred.(i).o_kind with Some k -> is_unconditional k | None -> false

let no_prediction ~width = Array.make width empty_opinion

let merge ~strong ~weak =
  if Array.length strong <> Array.length weak then
    invalid_arg "Types.merge: prediction width mismatch";
  Array.map2 (fun s w -> merge_opinion ~strong:s ~weak:w) strong weak

let equal_opinion a b =
  a.o_branch = b.o_branch && a.o_kind = b.o_kind && a.o_taken = b.o_taken
  && a.o_target = b.o_target

let equal_prediction a b =
  Array.length a = Array.length b && Array.for_all2 equal_opinion a b

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
