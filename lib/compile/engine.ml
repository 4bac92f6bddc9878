open Cobra
module Bits = Cobra_util.Bits
module Slab = Cobra_util.Slab
module Hashing = Cobra_util.Hashing

type t = {
  plan : Plan.t;
  emitted : Emit.t;
  depth : int;
  correction : bool;
  path_bits : int;
  ghist : Bits.t;  (** history buffers, shifted in place after each step's events *)
  phist : Bits.t;  (** provider-width [max 1 path_bits] register *)
  lhist : Lhist_provider.t;
  ctx : Context.t;  (** the one context, {!Context.reset} per step *)
  mutable next_token : int;
  pred_slots : Types.resolved array;
  eff_slots : Types.resolved array;
  fire_evs : Component.event array;  (** per component, built once *)
  mispredict_evs : Component.event array;
  update_evs : Component.event array;
  mutable last_taken_pred : bool;
}

let create (cfg : Pipeline.config) topo =
  let plan = Plan.build cfg topo in
  let emitted = Emit.stage plan in
  let width = cfg.Pipeline.fetch_width in
  let lhist =
    Lhist_provider.create ~entries:cfg.Pipeline.lhist_entries
      ~bits:cfg.Pipeline.lhist_bits
  in
  let ghist = Bits.zero cfg.Pipeline.ghist_bits in
  let phist = Bits.zero plan.Plan.path_width in
  (* Dead tail slots of the lhist context vector: the replay protocol pins
     live_slots to 1, so slots past 0 read as all-zero history — the same
     value the interpreter's lazy shared dead vector provides. Slot 0 is
     pointed at the branch's table entry every step. *)
  let lhists = Array.make width (Bits.zero cfg.Pipeline.lhist_bits) in
  let ctx =
    Context.make ~pc:0 ~fetch_width:width ~live_slots:1 ~ghist ~lhists
      ~phist:(if cfg.Pipeline.path_bits = 0 then Bits.zero 0 else phist)
      ()
  in
  let pred_slots = Array.make width Types.no_branch in
  let eff_slots = Array.make width Types.no_branch in
  (* The event records never change: the context, each component's
     metadata buffer and the two slot vectors are all rewritten in place. *)
  let events slots culprit =
    Array.map (fun meta -> { Component.ctx; meta; slots; culprit }) emitted.Emit.metas
  in
  {
    plan;
    emitted;
    depth = plan.Plan.depth;
    correction = cfg.Pipeline.predecode_history_correction;
    path_bits = cfg.Pipeline.path_bits;
    ghist;
    phist;
    lhist;
    ctx;
    next_token = 0;
    pred_slots;
    eff_slots;
    fire_evs = events pred_slots None;
    mispredict_evs = events eff_slots (Some 0);
    update_evs = events eff_slots None;
    last_taken_pred = false;
  }

let config t = t.plan.Plan.cfg
let plan t = t.plan
let describe t = Plan.describe t.plan
let last_taken_pred t = t.last_taken_pred
let metas t = t.emitted.Emit.metas
let next_token t = t.next_token
let snapshot_cells t = t.plan.Plan.snapshot_cells

(* Fold a taken branch's target into the path history — the closed form of
   [Pipeline.path_bits_of_target] followed by the provider's oldest-first
   shift-in of the expanded bit list (lowest folded bit first). *)
let push_path t target =
  let folded =
    Hashing.fold_int (Hashing.pc_bits target) ~width:62
      ~bits:Pipeline.path_bits_per_branch
  in
  for k = 0 to Pipeline.path_bits_per_branch - 1 do
    Bits.shift_in_lsb_in_place t.phist ((folded lsr k) land 1 = 1)
  done

let push_direction t ~pc taken =
  Bits.shift_in_lsb_in_place t.ghist taken;
  Lhist_provider.push_in_place t.lhist ~pc taken

(* Fused history update: the net effect of predict-time speculation,
   fire-time predecode correction, the mispredict restore (when wrong) and
   the immediate commit, collapsed per the protocol. Runs after the step's
   events, which read the predict-time histories through the context. *)
let update_histories t ~pc ~kind ~taken ~tgt ~taken_pred ~wrong (stages : Types.prediction array) =
  let is_cond = match kind with Types.Cond -> true | _ -> false in
  if t.correction then begin
    (* Predecode rewrites the speculative bits from the true branch
       positions, and a wrong conditional restores to the actual
       direction; either way one [b_taken] bit lands per conditional. *)
    if is_cond then push_direction t ~pc taken;
    if t.path_bits > 0 && (if wrong then taken else taken_pred) then push_path t tgt
  end
  else if wrong then begin
    (* No predecode correction: a wrong prediction restores from the
       actual outcome... *)
    if is_cond then push_direction t ~pc taken;
    if t.path_bits > 0 && taken then push_path t tgt
  end
  else begin
    (* ...and a right one commits the predict-time speculative bits, read
       off the Fetch-1 composite's slot-0 opinion, unchanged. *)
    let op = stages.(0).(0) in
    let op_branch =
      match op.Types.o_branch with Some true -> true | Some false | None -> false
    in
    let op_condish =
      match op.Types.o_kind with None | Some Types.Cond -> true | Some _ -> false
    in
    let op_taken =
      match op.Types.o_taken with Some true -> true | Some false | None -> false
    in
    if op_branch && op_condish then push_direction t ~pc op_taken;
    if t.path_bits > 0 && op_branch && op_taken then
      push_path t (match op.Types.o_target with Some v -> v | None -> 0)
  end

let step t ~pc ~kind ~taken ~target =
  Context.reset t.ctx ~pc;
  t.ctx.Context.lhists.(0) <- Lhist_provider.read t.lhist ~pc;
  let stages = t.emitted.Emit.eval t.ctx in
  let final = stages.(t.depth - 1).(0) in
  let taken_pred =
    match final.Types.o_taken with Some b -> b | None -> Types.is_unconditional kind
  in
  let target_pred = match final.Types.o_target with Some v -> v | None -> -1 in
  let known_target = target >= 0 in
  let tgt = if known_target then target else 0 in
  let wrong =
    taken_pred <> taken
    || taken
       && Types.is_unconditional kind
       && (not (Types.equal_branch_kind kind Types.Ret))
       && known_target && target_pred <> target
  in
  t.next_token <- t.next_token + 1;
  (* Event dispatch in component order: fire with the predicted outcomes,
     then — on a wrong prediction — the culprit's fast mispredict update,
     then commit-time training, all with the resolved outcome. *)
  t.pred_slots.(0) <-
    Types.resolved_branch ~kind ~taken:taken_pred ~target:(if taken_pred then tgt else 0);
  t.eff_slots.(0) <- Types.resolved_branch ~kind ~taken ~target:tgt;
  let comps = t.plan.Plan.comps in
  let n = Array.length comps in
  for i = 0 to n - 1 do
    comps.(i).Component.fire t.fire_evs.(i)
  done;
  if wrong then
    for i = 0 to n - 1 do
      comps.(i).Component.mispredict t.mispredict_evs.(i)
    done;
  for i = 0 to n - 1 do
    comps.(i).Component.update t.update_evs.(i)
  done;
  update_histories t ~pc ~kind ~taken ~tgt ~taken_pred ~wrong stages;
  t.last_taken_pred <- taken_pred;
  wrong

(* --- whole-design snapshots (Pipeline.snapshot layout) ------------------- *)

let write_bits slab ~pos v =
  let n = Bits.limb_count v in
  for i = 0 to n - 1 do
    Slab.set slab (pos + i) (Bits.get_limb v i)
  done;
  pos + n

(* Restore writes into the live buffers: the context points at them. *)
let load_bits slab ~pos dst =
  let n = Bits.limb_count dst in
  for i = 0 to n - 1 do
    Bits.set_limb dst i (Slab.get slab (pos + i))
  done;
  pos + n

let snapshot t =
  let slab = Slab.create t.plan.Plan.snapshot_cells in
  Slab.set slab 0 t.next_token;
  let pos = ref 1 in
  pos := write_bits slab ~pos:!pos t.ghist;
  pos := write_bits slab ~pos:!pos t.phist;
  for i = 0 to Lhist_provider.entries t.lhist - 1 do
    pos := write_bits slab ~pos:!pos (Lhist_provider.nth t.lhist i)
  done;
  assert (!pos = t.plan.Plan.mgmt_cells);
  t.emitted.Emit.snapshot_state slab;
  slab

let restore t slab =
  let expect = t.plan.Plan.snapshot_cells in
  if Slab.length slab <> expect then
    invalid_arg
      (Printf.sprintf "Engine.restore: snapshot has %d cells, engine needs %d"
         (Slab.length slab) expect);
  t.next_token <- Slab.get slab 0;
  let pos = ref 1 in
  pos := load_bits slab ~pos:!pos t.ghist;
  pos := load_bits slab ~pos:!pos t.phist;
  for i = 0 to Lhist_provider.entries t.lhist - 1 do
    pos := load_bits slab ~pos:!pos (Lhist_provider.nth t.lhist i)
  done;
  t.emitted.Emit.restore_state slab
