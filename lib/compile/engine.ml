open Cobra
module Bits = Cobra_util.Bits
module Hashing = Cobra_util.Hashing

type t = {
  cfg : Pipeline.config;
  composer : Composer.t;
  comps : Component.t array;
  depth : int;
  ghist : Bits.t;  (** history buffers, shifted in place after each step's events *)
  phist : Bits.t;
  lhist : Lhist_provider.t;
  ctx : Context.t;  (** the one context, {!Context.reset} per step *)
  mutable next_token : int;
  pred_slots : Types.resolved array;
  eff_slots : Types.resolved array;
  fire_evs : Component.event array;  (** per component, built once *)
  mispredict_evs : Component.event array;
  update_evs : Component.event array;
  outcomes : Types.outcomes;
  mutable last_taken_pred : bool;
}

let create (cfg : Pipeline.config) topo =
  Pipeline.check_config cfg;
  let composer = Composer.create ~fetch_width:cfg.Pipeline.fetch_width topo in
  let width = cfg.Pipeline.fetch_width in
  let lhist =
    Lhist_provider.create ~entries:cfg.Pipeline.lhist_entries
      ~bits:cfg.Pipeline.lhist_bits
  in
  let ghist = Bits.zero cfg.Pipeline.ghist_bits in
  let phist = Bits.zero Pipeline.path_bits in
  (* Dead tail slots of the lhist context vector: the replay protocol pins
     live_slots to 1, so slots past 0 read as all-zero history — the same
     value the interpreter's lazy shared dead vector provides. Slot 0 is
     pointed at the branch's table entry every step. *)
  let lhists = Array.make width (Bits.zero cfg.Pipeline.lhist_bits) in
  let ctx = Context.make ~pc:0 ~fetch_width:width ~live_slots:1 ~ghist ~lhists ~phist () in
  let pred_slots = Array.make width Types.no_branch in
  let eff_slots = Array.make width Types.no_branch in
  (* The event records never change: the context, each component's
     metadata buffer and the two slot vectors are all rewritten in place. *)
  let events slots culprit =
    Array.map (fun meta -> { Component.ctx; meta; slots; culprit }) (Composer.metas composer)
  in
  {
    cfg;
    composer;
    comps = Composer.components composer;
    depth = Composer.depth composer;
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
    outcomes = Types.outcomes ();
    last_taken_pred = false;
  }

let last_taken_pred t = t.last_taken_pred
let metas t = Composer.metas t.composer

(* Fold a taken branch's target into the path history — the pipeline's
   path contribution: the folded target, shifted in lowest folded bit
   first. *)
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
   the immediate commit, collapsed per the protocol. Predecode rewrites the
   speculative bits from the true branch position, and a wrong prediction
   restores to the actual outcome; a right one predicted that outcome. So
   one [taken] bit lands per conditional, and a taken branch's target lands
   in the path history. Runs after the step's events, which read the
   predict-time histories through the context. *)
let update_histories t ~pc ~kind ~taken ~tgt =
  (match kind with Types.Cond -> push_direction t ~pc taken | _ -> ());
  if taken then push_path t tgt

let step t ~pc ~kind ~taken ~target =
  Context.reset t.ctx ~pc;
  t.ctx.Context.lhists.(0) <- Lhist_provider.read t.lhist ~pc;
  let final = (Composer.eval t.composer t.ctx).(t.depth - 1) in
  let taken_pred =
    Types.replay_taken_pred kind ~dir_known:(Row.taken_known final 0) ~dir:(Row.taken final 0)
  in
  let tgt = if target >= 0 then target else 0 in
  let wrong =
    Types.replay_wrong kind ~taken_pred ~target_known:(Row.target_known final 0)
      ~target_pred:(Row.target final 0) ~taken ~target
  in
  t.next_token <- t.next_token + 1;
  (* Event dispatch in component order: fire with the predicted outcomes,
     then — on a wrong prediction — the culprit's fast mispredict update,
     then commit-time training, all with the resolved outcome. *)
  let actual = Types.outcome t.outcomes ~kind ~taken ~target:tgt in
  t.eff_slots.(0) <- actual;
  t.pred_slots.(0) <-
    (if taken_pred && taken then actual
     else Types.outcome t.outcomes ~kind ~taken:taken_pred ~target:(if taken_pred then tgt else 0));
  let comps = t.comps in
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
  update_histories t ~pc ~kind ~taken ~tgt;
  t.last_taken_pred <- taken_pred;
  wrong

(* --- whole-design snapshots (the pipeline's slab layout) ------------------- *)

let snapshot t =
  Pipeline.write_slab t.cfg t.comps ~next_token:t.next_token ~ghist:t.ghist ~path:t.phist
    t.lhist

(* Loads into the live buffers: the context points at them. *)
let restore t slab =
  t.next_token <-
    Pipeline.read_slab ~engine:"engine" t.cfg t.comps slab ~ghist:t.ghist ~path:t.phist
      t.lhist
