open Cobra

type source = Btrace.cursor -> bool

let of_records next c =
  match next () with
  | Some r ->
    Btrace.fill c r;
    true
  | None -> false

type result = {
  design : string;
  trace : string;
  instructions : int;
  branches : int;
  cond_branches : int;
  mispredicts : int;
  cond_mispredicts : int;
  elapsed_s : float;
}

exception Timeout of { branches : int; deadline_s : float }

let () =
  Printexc.register_printer (function
    | Timeout { branches; deadline_s = _ } ->
      Some (Printf.sprintf "Replay.Timeout after %d branches (deadline passed)" branches)
    | _ -> None)

let mpki r = Cobra_util.Stats.mpki ~misses:r.mispredicts ~instructions:r.instructions

let accuracy r =
  if r.branches = 0 then 1.0
  else 1.0 -. (float_of_int r.mispredicts /. float_of_int r.branches)

let branches_per_sec r =
  float_of_int r.branches /. (if r.elapsed_s > 0.0 then r.elapsed_s else epsilon_float)

let to_perf r =
  let p = Cobra_uarch.Perf.create () in
  p.Cobra_uarch.Perf.instructions <- r.instructions;
  p.Cobra_uarch.Perf.branches <- r.branches;
  p.Cobra_uarch.Perf.cond_branches <- r.cond_branches;
  p.Cobra_uarch.Perf.mispredicts <- r.mispredicts;
  p.Cobra_uarch.Perf.cond_mispredicts <- r.cond_mispredicts;
  p

let summary r =
  Printf.sprintf
    "%s on %s: %d branches (%d cond) over %d insns, %d mispredicts (%d cond), MPKI %.3f, \
     accuracy %.2f%%, %.2fs (%.0f branches/s)"
    r.design r.trace r.branches r.cond_branches r.instructions r.mispredicts
    r.cond_mispredicts (mpki r)
    (100.0 *. accuracy r)
    r.elapsed_s (branches_per_sec r)

module Engine = Cobra_compile.Engine

type engine_kind = [ `Interpreted | `Compiled ]

let engine_name = function `Interpreted -> "interpreted" | `Compiled -> "compiled"

let engine_of_string = function
  | "interpreted" -> `Interpreted
  | "compiled" -> `Compiled
  | s -> invalid_arg (Printf.sprintf "Replay.engine_of_string: %S" s)

let compiled (d : Cobra_eval.Designs.t) =
  Engine.create d.Cobra_eval.Designs.pipeline_config (d.Cobra_eval.Designs.make ())

(* ------------------------------------------------------------------ *)
(* One replay simulator, either engine. The interpreted [step] is the only
   written-out copy of the replay protocol's per-branch transaction;
   [Engine.step] is its fused compiled form, and the compiled_twin
   conformance checks certify that every per-branch decision, metadata word
   and state bit of the two agree. *)

module Sim = struct
  type interpreted = {
    pl : Pipeline.t;
    slots : Types.resolved array;
    metas : Cobra_util.Bits.t array;
        (* the last packet's metadata: its record goes back to the
           pipeline's pool at commit *)
    outcomes : Types.outcomes;
    mutable taken_pred : bool;
  }

  type t = Interpreted of interpreted | Compiled of Engine.t

  let of_pipeline pl =
    Interpreted
      {
        pl;
        slots = Array.make (Pipeline.config pl).Pipeline.fetch_width Types.no_branch;
        metas =
          Array.map
            (fun (c : Component.t) -> Cobra_util.Bits.zero c.Component.meta_bits)
            (Pipeline.components pl);
        outcomes = Types.outcomes ();
        taken_pred = false;
      }

  let of_engine eng = Compiled eng

  let create (engine : engine_kind) d =
    match engine with
    | `Interpreted -> of_pipeline (Cobra_eval.Designs.pipeline d)
    | `Compiled -> of_engine (compiled d)

  let step_interpreted s (c : Btrace.cursor) =
    let pl = s.pl and kind = c.Btrace.c_kind in
    let tok = Pipeline.predict pl ~pc:c.Btrace.c_pc ~max_len:1 in
    let rows = Pipeline.rows pl tok in
    let final = rows.(Array.length rows - 1) in
    let taken_pred =
      Types.replay_taken_pred kind ~dir_known:(Row.taken_known final 0) ~dir:(Row.taken final 0)
    in
    let wrong =
      Types.replay_wrong kind ~taken_pred ~target_known:(Row.target_known final 0)
        ~target_pred:(Row.target final 0) ~taken:c.Btrace.c_taken ~target:c.Btrace.c_target
    in
    let target = if c.Btrace.c_target >= 0 then c.Btrace.c_target else 0 in
    let actual = Types.outcome s.outcomes ~kind ~taken:c.Btrace.c_taken ~target in
    s.slots.(0) <-
      (if taken_pred && c.Btrace.c_taken then actual
       else
         Types.outcome s.outcomes ~kind ~taken:taken_pred
           ~target:(if taken_pred then target else 0));
    let seq = Pipeline.fire pl tok ~slots:s.slots ~packet_len:1 in
    let metas = (Pipeline.entry pl seq).History_file.e_metas in
    for id = 0 to Array.length metas - 1 do
      Cobra_util.Bits.blit ~src:metas.(id) ~dst:s.metas.(id)
    done;
    if wrong then Pipeline.mispredict pl ~seq ~slot:0 actual
    else Pipeline.resolve pl ~seq ~slot:0 actual;
    (* immediate commit: predictor-only replay has no backend to wait on *)
    Pipeline.commit pl;
    s.taken_pred <- taken_pred;
    wrong

  let step t c =
    match t with
    | Interpreted s -> step_interpreted s c
    | Compiled eng ->
      Engine.step eng ~pc:c.Btrace.c_pc ~kind:c.Btrace.c_kind ~taken:c.Btrace.c_taken
        ~target:c.Btrace.c_target

  let last_taken_pred = function
    | Interpreted s -> s.taken_pred
    | Compiled eng -> Engine.last_taken_pred eng

  let metas = function Interpreted s -> s.metas | Compiled eng -> Engine.metas eng

  let snapshot = function
    | Interpreted s -> Pipeline.snapshot s.pl
    | Compiled eng -> Engine.snapshot eng

  let restore t slab =
    match t with
    | Interpreted s -> Pipeline.restore s.pl slab
    | Compiled eng -> Engine.restore eng slab
end

let drive ?(max_branches = max_int) ?(max_insns = max_int) ?deadline ?observe ~design ~trace
    sim source =
  let c = Btrace.cursor () in
  let instructions = ref 0 in
  let branches = ref 0 in
  let cond_branches = ref 0 in
  let mispredicts = ref 0 in
  let cond_mispredicts = ref 0 in
  let t0 = Unix.gettimeofday () in
  let continue_ = ref true in
  while !continue_ do
    (* amortized deadline check: a poisoned or huge trace cannot wedge a
       serving domain past its budget *)
    (match deadline with
    | Some d when !branches land 2047 = 0 && Unix.gettimeofday () > d ->
      raise (Timeout { branches = !branches; deadline_s = d })
    | _ -> ());
    (* the branch cap is checked before reading, so a capped replay leaves
       the source on the boundary record *)
    if !branches >= max_branches || not (source c) then continue_ := false
    else if !instructions + Btrace.cursor_insns c > max_insns then continue_ := false
    else begin
      instructions := !instructions + Btrace.cursor_insns c;
      incr branches;
      let is_cond = Types.equal_branch_kind c.Btrace.c_kind Types.Cond in
      if is_cond then incr cond_branches;
      let wrong = Sim.step sim c in
      if wrong then begin
        incr mispredicts;
        if is_cond then incr cond_mispredicts
      end;
      match observe with
      | Some f -> f c ~taken_pred:(Sim.last_taken_pred sim) ~wrong
      | None -> ()
    end
  done;
  {
    design;
    trace;
    instructions = !instructions;
    branches = !branches;
    cond_branches = !cond_branches;
    mispredicts = !mispredicts;
    cond_mispredicts = !cond_mispredicts;
    elapsed_s = Unix.gettimeofday () -. t0;
  }

let run ?max_branches ~design ~trace pl records =
  drive ?max_branches ~design ~trace (Sim.of_pipeline pl) (of_records records)

let run_compiled ?max_branches ~design ~trace eng records =
  drive ?max_branches ~design ~trace (Sim.of_engine eng) (of_records records)

(* ------------------------------------------------------------------ *)
(* Warmup checkpoints, built on the flat whole-design snapshots: a replay
   loop is quiesced between any two records (every branch commits
   immediately), so the design checkpoints into one slab, and the reader's
   byte offset pins the stream position. *)

type checkpoint = {
  ck_slab : Cobra_util.Slab.t;
  ck_offset : int;
  ck_branches : int;
  ck_insns : int;
}

let checkpoint sim rd ~branches ~insns =
  {
    ck_slab = Sim.snapshot sim;
    ck_offset = Reader.offset rd;
    ck_branches = branches;
    ck_insns = insns;
  }

let warmup ?deadline ~branches ~design ~trace sim rd =
  let res =
    drive ?deadline ~max_branches:branches ~design ~trace sim (Reader.read rd)
  in
  (checkpoint sim rd ~branches:res.branches ~insns:res.instructions, res)

let restore sim rd ck =
  Sim.restore sim ck.ck_slab;
  Reader.seek rd ck.ck_offset

let warmup_compiled ~branches ~design ~trace eng rd =
  warmup ~branches ~design ~trace (Sim.of_engine eng) rd

let restore_compiled eng rd ck = restore (Sim.of_engine eng) rd ck

let counters_equal a b =
  a.instructions = b.instructions
  && a.branches = b.branches
  && a.cond_branches = b.cond_branches
  && a.mispredicts = b.mispredicts
  && a.cond_mispredicts = b.cond_mispredicts

let run_design ?max_branches ?max_insns ?deadline ?(engine = `Compiled)
    (d : Cobra_eval.Designs.t) ~path =
  let sim = Sim.create engine d in
  Reader.with_file path (fun rd ->
      drive ?max_branches ?max_insns ?deadline ~design:d.Cobra_eval.Designs.name ~trace:path
        sim (Reader.read rd))

let run_design_with_stats ?max_branches ?max_insns ?deadline (d : Cobra_eval.Designs.t) ~path =
  let pl = Cobra_eval.Designs.pipeline d in
  let coll = Cobra_stats.Collector.create pl in
  let insns_seen = ref 0 and mis_seen = ref 0 in
  let observe r ~taken_pred:_ ~wrong =
    insns_seen := !insns_seen + Btrace.cursor_insns r;
    if wrong then incr mis_seen;
    Cobra_stats.Collector.sample coll ~insns:!insns_seen ~cycles:0 ~mispredicts:!mis_seen
  in
  let res =
    Reader.with_file path (fun rd ->
        drive ?max_branches ?max_insns ?deadline ~observe
          ~design:d.Cobra_eval.Designs.name ~trace:path (Sim.of_pipeline pl) (Reader.read rd))
  in
  let report =
    Cobra_stats.Collector.report coll ~insns:res.instructions ~cycles:0
      ~mispredicts:res.mispredicts ~design:res.design ~workload:(Filename.basename path)
      ~perf:(Cobra_uarch.Perf.counters (to_perf res))
  in
  (res, report)
