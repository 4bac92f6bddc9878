open Cobra
open Cobra_components
module Bits = Cobra_util.Bits

let check = Alcotest.check
let width = 4

let cfg =
  {
    Pipeline.fetch_width = width;
    ghist_bits = 32;
    lhist_bits = 16;
    lhist_entries = 128;
  }

(* Drive a single-component pipeline through one branch outcome at [pc],
   committing immediately. Returns the predicted direction (if any) at the
   final stage. *)
let step pl ~pc ~kind ~taken ~target =
  let tok = Pipeline.predict pl ~pc ~max_len:1 in
  let stages = Pipeline.stages pl tok in
  let final = stages.(Array.length stages - 1) in
  let slots = Array.make width Types.no_branch in
  slots.(0) <- Types.resolved_branch ~kind ~taken ~target;
  let seq = Pipeline.fire pl tok ~slots ~packet_len:1 in
  let resolved = Types.resolved_branch ~kind ~taken ~target in
  let predicted_taken = final.(0).Types.o_taken in
  let mispredicted =
    match predicted_taken with Some p -> p <> taken | None -> false
  in
  if mispredicted then Pipeline.mispredict pl ~seq ~slot:0 resolved
  else Pipeline.resolve pl ~seq ~slot:0 resolved;
  Pipeline.commit pl;
  final.(0)

let train pl ~pc ~taken ~n =
  for _ = 1 to n do
    ignore (step pl ~pc ~kind:Types.Cond ~taken ~target:(pc + 0x40))
  done

(* --- HBIM ------------------------------------------------------------------ *)

let test_hbim_learns_direction () =
  let c = Hbim.make (Hbim.default ~name:"BIM" ~indexing:Indexing.Pc) in
  let pl = Pipeline.create cfg (Topology.node c) in
  train pl ~pc:0x100 ~taken:true ~n:4;
  let op = step pl ~pc:0x100 ~kind:Types.Cond ~taken:true ~target:0x140 in
  check Alcotest.(option bool) "learned taken" (Some true) op.o_taken;
  train pl ~pc:0x100 ~taken:false ~n:4;
  let op = step pl ~pc:0x100 ~kind:Types.Cond ~taken:false ~target:0 in
  check Alcotest.(option bool) "relearned not-taken" (Some false) op.o_taken

let test_hbim_no_branch_claim () =
  let c = Hbim.make (Hbim.default ~name:"BIM" ~indexing:Indexing.Pc) in
  let pl = Pipeline.create cfg (Topology.node c) in
  let tok = Pipeline.predict pl ~pc:0x100 ~max_len:4 in
  let final = (Pipeline.stages pl tok).(1) in
  check Alcotest.(option bool) "direction only" None final.(0).Types.o_branch;
  check Alcotest.bool "has direction" true (final.(0).Types.o_taken <> None)

let test_hbim_ghist_indexing_separates_paths () =
  (* with global-history indexing, the same branch PC can learn
     history-dependent directions; with PC indexing it cannot *)
  let run indexing =
    let c = Hbim.make { (Hbim.default ~name:"BIM" ~indexing) with entries = 1024 } in
    let pl = Pipeline.create cfg (Topology.node c) in
    (* alternate: branch taken iff previous branch was taken; pattern 1100 *)
    let pattern = [ true; true; false; false ] in
    let correct = ref 0 and total = ref 0 in
    for _ = 1 to 200 do
      List.iter
        (fun taken ->
          let op = step pl ~pc:0x200 ~kind:Types.Cond ~taken ~target:0x280 in
          incr total;
          if op.Types.o_taken = Some taken then incr correct)
        pattern
    done;
    float_of_int !correct /. float_of_int !total
  in
  let acc_ghist = run (Indexing.Hash [ Indexing.Pc; Indexing.Ghist 8 ]) in
  let acc_pc = run Indexing.Pc in
  check Alcotest.bool
    (Printf.sprintf "ghist-indexed (%.2f) beats pc-indexed (%.2f)" acc_ghist acc_pc)
    true
    (acc_ghist > acc_pc +. 0.2)

(* --- BTB -------------------------------------------------------------------- *)

let test_btb_learns_target () =
  let c = Btb.make (Btb.default ~name:"BTB") in
  let pl = Pipeline.create cfg (Topology.node c) in
  ignore (step pl ~pc:0x400 ~kind:Types.Jump ~taken:true ~target:0x1200);
  let op = step pl ~pc:0x400 ~kind:Types.Jump ~taken:true ~target:0x1200 in
  check Alcotest.(option int) "target learned" (Some 0x1200) op.o_target;
  check Alcotest.(option bool) "uncond predicted taken" (Some true) op.o_taken

let test_btb_cond_leaves_direction_unset () =
  let c = Btb.make (Btb.default ~name:"BTB") in
  let pl = Pipeline.create cfg (Topology.node c) in
  ignore (step pl ~pc:0x400 ~kind:Types.Cond ~taken:true ~target:0x1200);
  let op = step pl ~pc:0x400 ~kind:Types.Cond ~taken:true ~target:0x1200 in
  check Alcotest.(option int) "target" (Some 0x1200) op.o_target;
  check Alcotest.(option bool) "direction left to counter tables" None op.o_taken

let test_btb_does_not_allocate_never_taken () =
  let c = Btb.make (Btb.default ~name:"BTB") in
  let pl = Pipeline.create cfg (Topology.node c) in
  ignore (step pl ~pc:0x400 ~kind:Types.Cond ~taken:false ~target:0);
  let op = step pl ~pc:0x400 ~kind:Types.Cond ~taken:false ~target:0 in
  check Alcotest.(option bool) "no entry" None op.o_branch

let test_btb_conflict_eviction () =
  (* a single-set BTB with 2 ways holding 3 branches: replacement must keep
     the structure consistent and the most recent branches predictable *)
  let c = Btb.make { (Btb.default ~name:"BTB") with sets = 1; ways = 2 } in
  let pl = Pipeline.create cfg (Topology.node c) in
  let pcs = [ 0x1000; 0x2000; 0x3000 ] in
  List.iter (fun pc -> ignore (step pl ~pc ~kind:Types.Jump ~taken:true ~target:(pc + 0x100))) pcs;
  (* the two most recently allocated must hit *)
  let op = step pl ~pc:0x3000 ~kind:Types.Jump ~taken:true ~target:0x3100 in
  check Alcotest.(option int) "recent target hits" (Some 0x3100) op.o_target

(* --- uBTB ------------------------------------------------------------------- *)

let test_ubtb_single_cycle () =
  let c = Ubtb.make (Ubtb.default ~name:"UBTB") in
  check Alcotest.int "latency 1" 1 c.Component.latency;
  let pl = Pipeline.create cfg (Topology.node c) in
  ignore (step pl ~pc:0x800 ~kind:Types.Cond ~taken:true ~target:0x900);
  let tok = Pipeline.predict pl ~pc:0x800 ~max_len:4 in
  let stage1 = (Pipeline.stages pl tok).(0) in
  check Alcotest.(option bool) "stage-1 taken" (Some true) stage1.(0).Types.o_taken;
  check Alcotest.(option int) "stage-1 target" (Some 0x900) stage1.(0).Types.o_target

let test_ubtb_counter_hysteresis () =
  let c = Ubtb.make (Ubtb.default ~name:"UBTB") in
  let pl = Pipeline.create cfg (Topology.node c) in
  ignore (step pl ~pc:0x800 ~kind:Types.Cond ~taken:true ~target:0x900);
  ignore (step pl ~pc:0x800 ~kind:Types.Cond ~taken:true ~target:0x900);
  (* one not-taken shouldn't flip a saturated counter *)
  ignore (step pl ~pc:0x800 ~kind:Types.Cond ~taken:false ~target:0);
  let op = step pl ~pc:0x800 ~kind:Types.Cond ~taken:true ~target:0x900 in
  check Alcotest.(option bool) "still taken" (Some true) op.o_taken

(* --- GTAG ------------------------------------------------------------------- *)

let test_gtag_silent_on_miss () =
  let c = Gtag.make (Gtag.default ~name:"GTAG") in
  let pl = Pipeline.create cfg (Topology.node c) in
  let tok = Pipeline.predict pl ~pc:0x100 ~max_len:4 in
  let final = (Pipeline.stages pl tok).(2) in
  check Alcotest.(option bool) "silent" None final.(0).Types.o_taken

let test_gtag_learns_with_history () =
  let c = Gtag.make (Gtag.default ~name:"GTAG") in
  let pl = Pipeline.create cfg (Topology.node c) in
  (* train until the global history window is saturated and stable *)
  train pl ~pc:0x100 ~taken:true ~n:24;
  let op = step pl ~pc:0x100 ~kind:Types.Cond ~taken:true ~target:0x140 in
  check Alcotest.(option bool) "predicts" (Some true) op.o_taken

(* --- Tourney ----------------------------------------------------------------- *)

let constant_direction ~name ~taken =
  Component.make ~name ~family:Component.Static ~fetch_width:width ~latency:2 ~meta_bits:0
    ~storage:Storage.zero
    ~predict:(fun _ ~pred_in:_ ~out ~meta:_ ->
      for i = 0 to width - 1 do
        Row.set_taken out i taken
      done)
    ()

let test_tourney_learns_better_side () =
  (* sub 0 always says taken, sub 1 always says not-taken; the branch is
     always not-taken, so the chooser must learn to pick side 1 *)
  let s0 = constant_direction ~name:"S0" ~taken:true in
  let s1 = constant_direction ~name:"S1" ~taken:false in
  let sel = Tourney.make (Tourney.default ~name:"TOURNEY") in
  let topo = Topology.arbitrate sel [ Topology.node s0; Topology.node s1 ] in
  let pl = Pipeline.create cfg topo in
  train pl ~pc:0x300 ~taken:false ~n:8;
  let op = step pl ~pc:0x300 ~kind:Types.Cond ~taken:false ~target:0 in
  check Alcotest.(option bool) "chooser picked correct side" (Some false) op.o_taken

(* --- TAGE -------------------------------------------------------------------- *)

let test_tage_beats_bimodal_on_history_pattern () =
  (* pattern TTN repeated: a bimodal counter can't exceed 2/3 accuracy,
     TAGE should learn it near-perfectly *)
  let accuracy make_topo =
    let pl = Pipeline.create cfg (make_topo ()) in
    let pattern = [ true; true; false ] in
    let correct = ref 0 and total = ref 0 in
    for round = 1 to 400 do
      List.iter
        (fun taken ->
          let op = step pl ~pc:0x500 ~kind:Types.Cond ~taken ~target:0x600 in
          if round > 100 then begin
            incr total;
            if op.Types.o_taken = Some taken then incr correct
          end)
        pattern
    done;
    float_of_int !correct /. float_of_int !total
  in
  let bim_topo () = Topology.node (Hbim.make (Hbim.default ~name:"BIM" ~indexing:Indexing.Pc)) in
  let tage_topo () =
    Topology.over
      (Tage.make (Tage.default ~name:"TAGE"))
      (Topology.node (Hbim.make (Hbim.default ~name:"BIM" ~indexing:Indexing.Pc)))
  in
  let acc_bim = accuracy bim_topo and acc_tage = accuracy tage_topo in
  check Alcotest.bool
    (Printf.sprintf "tage %.3f > bim %.3f" acc_tage acc_bim)
    true
    (acc_tage > 0.95 && acc_bim < 0.75)

let test_tage_storage_accounting () =
  let tcfg = Tage.default ~name:"TAGE" in
  let c = Tage.make tcfg in
  check Alcotest.int "storage matches spec" (Tage.storage_bits tcfg)
    c.Component.storage.Storage.sram_bits

(* --- Loop predictor ------------------------------------------------------------ *)

let loop_topology () =
  let loop = Loop_pred.make (Loop_pred.default ~name:"LOOP") in
  let bim = Hbim.make (Hbim.default ~name:"BIM" ~indexing:Indexing.Pc) in
  Topology.over loop (Topology.node bim)

let run_loop_iterations pl ~pc ~trips ~rounds =
  (* a loop branch: taken [trips] times, then not taken once *)
  let exit_predictions = ref [] in
  for _ = 1 to rounds do
    for _ = 1 to trips do
      ignore (step pl ~pc ~kind:Types.Cond ~taken:true ~target:pc)
    done;
    let op = step pl ~pc ~kind:Types.Cond ~taken:false ~target:0 in
    exit_predictions := op.Types.o_taken :: !exit_predictions
  done;
  List.rev !exit_predictions

let test_loop_predicts_exit () =
  let pl = Pipeline.create cfg (loop_topology ()) in
  let preds = run_loop_iterations pl ~pc:0x700 ~trips:7 ~rounds:20 in
  (* after warmup the exit must be predicted not-taken, which the bimodal
     table alone would always get wrong *)
  let late = List.filteri (fun i _ -> i >= 12) preds in
  check Alcotest.bool "late exits predicted" true
    (List.for_all (fun p -> p = Some false) late)

let test_loop_repair_restores_count () =
  (* speculative counting must be unwound when packets are squashed *)
  let loop = Loop_pred.make (Loop_pred.default ~name:"LOOP") in
  let pl = Pipeline.create cfg (Topology.node loop) in
  let pc = 0x720 in
  (* train an entry via mispredict-allocation *)
  let tok = Pipeline.predict pl ~pc ~max_len:1 in
  let slots = Array.make width Types.no_branch in
  slots.(0) <- Types.resolved_branch ~kind:Types.Cond ~taken:true ~target:pc;
  let seq = Pipeline.fire pl tok ~slots ~packet_len:1 in
  Pipeline.mispredict pl ~seq ~slot:0
    (Types.resolved_branch ~kind:Types.Cond ~taken:false ~target:0);
  Pipeline.commit pl;
  (* now speculatively fire two iterations and squash via mispredict on the
     first: the second's speculative increment must be repaired *)
  let t1 = Pipeline.predict pl ~pc ~max_len:1 in
  let s1 = Pipeline.fire pl t1 ~slots ~packet_len:1 in
  let t2 = Pipeline.predict pl ~pc ~max_len:1 in
  let _s2 = Pipeline.fire pl t2 ~slots ~packet_len:1 in
  Pipeline.mispredict pl ~seq:s1 ~slot:0
    (Types.resolved_branch ~kind:Types.Cond ~taken:false ~target:0);
  (* after repair + correction, c_count reflects only the exit (reset to 0);
     we can't read it directly, but a subsequent full loop round must still
     behave deterministically (no crash, prediction eventually correct) *)
  Pipeline.commit pl;
  let preds = run_loop_iterations pl ~pc ~trips:5 ~rounds:15 in
  let late = List.filteri (fun i _ -> i >= 10) preds in
  check Alcotest.bool "recovers and predicts exits" true
    (List.for_all (fun p -> p = Some false) late)

(* --- the catalogue: every kind covered, every default instance sound ----------- *)

module Golden = Cobra_conformance.Golden
module Target = Cobra_probe.Target

(* Every catalogued kind has a member of [named] (name, kind), and every
   member's kind is catalogued; each failure names the kind. *)
let covers ~what named =
  let kinds = List.map (fun (e : Catalogue.entry) -> e.Catalogue.kind) Catalogue.all in
  check Alcotest.(list string) ("every kind has a " ^ what) []
    (List.filter_map
       (fun kind ->
         if List.exists (fun (_, k) -> String.equal k kind) named then None
         else Some (Printf.sprintf "component kind %s has no %s" kind what))
       kinds
    @ List.filter_map
        (fun (name, kind) ->
          if List.mem kind kinds then None
          else Some (Printf.sprintf "%s %s names kind %s, which is not catalogued" what name kind))
        named)

let test_golden_twins () =
  covers ~what:"golden twin"
    (List.map (fun (Golden.P { kind; _ } as p) -> (Golden.packed_name p, kind)) (Golden.zoo ()))

let test_probe_targets () =
  covers ~what:"probe target"
    (List.map
       (fun (t : Target.t) ->
         match t.Target.t_kind with
         | Some kind -> (t.Target.t_name, kind)
         | None -> Alcotest.failf "probe target %s names no kind" t.Target.t_name)
       Target.components)

(* A conditional-branch stream of 512 packets. Its contexts, events and
   buffers are built up front, so an allocation count over it measures only
   the components' own work. *)
let packet_stream =
  let rng = Random.State.make [| 7 |] in
  Array.init 512 (fun _ ->
      let ctx =
        Context.make
          ~pc:(0x4000 + (16 * Random.State.int rng 64))
          ~fetch_width:width
          ~ghist:(Bits.init 64 (fun _ -> Random.State.bool rng))
          ~lhists:(Array.init width (fun _ -> Bits.zero 16))
          ~phist:(Bits.init 16 (fun _ -> Random.State.bool rng))
          ()
      in
      let slots = Array.make width Types.no_branch in
      slots.(Random.State.int rng width) <-
        Types.resolved_branch ~kind:Types.Cond ~taken:(Random.State.bool rng) ~target:0x5000;
      (ctx, slots))

(* Once warm, one packet's predict, fire and update allocate nothing; the
   fault names the component otherwise. The incoming rows hold directions
   (a selector gets two, which disagree on every slot), so correctors and
   selectors take their full paths. *)
let alloc_faults (c : Component.t) =
  let out = Row.create ~width in
  let meta = Bits.zero c.Component.meta_bits in
  let pred_in =
    Array.init
      (if c.Component.family = Component.Selector then 2 else 1)
      (fun i ->
        let row = Row.create ~width in
        for slot = 0 to width - 1 do
          Row.set_taken row slot ((slot + i) mod 2 = 0)
        done;
        row)
  in
  let events =
    Array.map (fun (ctx, slots) -> { Component.ctx; meta; slots; culprit = None }) packet_stream
  in
  let run () =
    for i = 0 to Array.length events - 1 do
      let ev = events.(i) in
      Row.clear out;
      c.Component.predict ev.Component.ctx ~pred_in ~out ~meta;
      c.Component.fire ev;
      c.Component.update ev
    done
  in
  run ();
  let w0 = Gc.minor_words () in
  run ();
  let words = (Gc.minor_words () -. w0) /. float_of_int (Array.length events) in
  if words = 0. then []
  else [ Printf.sprintf "%s allocates %.1f minor words per packet" c.Component.name words ]

(* The tagged kernels, the path-history ITTAGE among them. *)
let test_tagged_alloc_free () =
  check Alcotest.(list string) "tagged kernels" []
    (List.concat_map alloc_faults
       [
         Ittage.make (Ittage.default ~name:"ITTAGE");
         Ittage.make { (Ittage.default ~name:"ITTAGE_PATH") with use_path_history = true };
         Gtag.make (Gtag.default ~name:"GTAG");
       ])

(* Each kind's default instance accounts storage exactly when it keeps
   state, and allocates nothing per warm packet. *)
let test_default_instances () =
  let storage_faults (c : Component.t) =
    let stateful = Component.state_cells c > 0 in
    if stateful = (Storage.total_bits c.Component.storage > 0) then []
    else
      [
        (c.Component.name
        ^ if stateful then " keeps state but accounts no storage"
          else " accounts storage but keeps no state");
      ]
  in
  check Alcotest.(list string) "default instances" []
    (List.concat_map
       (fun (e : Catalogue.entry) ->
         let c = e.Catalogue.make () in
         storage_faults c @ alloc_faults c)
       Catalogue.all)

let () =
  Alcotest.run "cobra_components"
    [
      ( "hbim",
        [
          Alcotest.test_case "learns direction" `Quick test_hbim_learns_direction;
          Alcotest.test_case "direction-only opinion" `Quick test_hbim_no_branch_claim;
          Alcotest.test_case "history indexing helps" `Quick
            test_hbim_ghist_indexing_separates_paths;
        ] );
      ( "btb",
        [
          Alcotest.test_case "learns target" `Quick test_btb_learns_target;
          Alcotest.test_case "cond direction unset" `Quick test_btb_cond_leaves_direction_unset;
          Alcotest.test_case "no alloc for never-taken" `Quick
            test_btb_does_not_allocate_never_taken;
          Alcotest.test_case "conflict eviction" `Quick test_btb_conflict_eviction;
        ] );
      ( "ubtb",
        [
          Alcotest.test_case "single cycle" `Quick test_ubtb_single_cycle;
          Alcotest.test_case "counter hysteresis" `Quick test_ubtb_counter_hysteresis;
        ] );
      ( "gtag",
        [
          Alcotest.test_case "silent on miss" `Quick test_gtag_silent_on_miss;
          Alcotest.test_case "learns" `Quick test_gtag_learns_with_history;
        ] );
      ( "tagged",
        [
          Alcotest.test_case "ITTAGE and GTAG allocate nothing per packet" `Quick
            test_tagged_alloc_free;
        ] );
      ( "kinds",
        [
          Alcotest.test_case "every kind has a golden twin" `Quick test_golden_twins;
          Alcotest.test_case "every kind has a probe target" `Quick test_probe_targets;
          Alcotest.test_case "default instance storage and allocation" `Quick
            test_default_instances;
        ] );
      ( "tourney",
        [ Alcotest.test_case "learns better side" `Quick test_tourney_learns_better_side ] );
      ( "tage",
        [
          Alcotest.test_case "beats bimodal on pattern" `Quick
            test_tage_beats_bimodal_on_history_pattern;
          Alcotest.test_case "storage accounting" `Quick test_tage_storage_accounting;
        ] );
      ( "loop",
        [
          Alcotest.test_case "predicts exit" `Quick test_loop_predicts_exit;
          Alcotest.test_case "repair restores count" `Quick test_loop_repair_restores_count;
        ] );
    ]
