(* End-to-end integration properties across composer + components + core. *)

open Cobra
open Cobra_components
module Perf = Cobra_uarch.Perf
module Config = Cobra_uarch.Config

let check = Alcotest.check

let run ?(config = Config.default) ?(insns = 15_000) (design : Cobra_eval.Designs.t) stream =
  let pl = Cobra_eval.Designs.pipeline design in
  let core = Cobra_uarch.Core.create config pl stream in
  Cobra_uarch.Core.run core ~max_insns:insns

(* --- accuracy orderings the paper's designs must exhibit ------------------------ *)

let test_tage_l_wins_on_history_patterns () =
  let acc d =
    Perf.branch_accuracy (run d (Cobra_workloads.Kernels.pattern_ttn ()))
  in
  let tage = acc Cobra_eval.Designs.tage_l and tourney = acc Cobra_eval.Designs.tourney in
  check Alcotest.bool
    (Printf.sprintf "tage-l %.3f >= tourney %.3f" tage tourney)
    true (tage >= tourney);
  check Alcotest.bool "tage-l near perfect" true (tage > 0.99)

let test_tourney_suffers_aliasing () =
  (* the paper's Fig 10 commentary: the Tourney design has no tagged
     direction component; on structured loop-and-pattern code (x264) its
     untagged tables alias and it trails TAGE-L by a wide MPKI margin *)
  let stream () = (Cobra_workloads.Suite.find "x264").Cobra_workloads.Suite.make () in
  let mpki d = Perf.mpki (run ~insns:40_000 d (stream ())) in
  let tage = mpki Cobra_eval.Designs.tage_l and tourney = mpki Cobra_eval.Designs.tourney in
  check Alcotest.bool
    (Printf.sprintf "tourney MPKI %.1f well above tage-l %.1f" tourney tage)
    true
    (tourney > tage *. 1.5)

let test_loop_component_earns_its_area () =
  (* A loop longer than any history window: B2's 16-bit (and even TAGE's
     64-bit) global history cannot see the exit coming, but TAGE-L's loop
     predictor counts trips directly. *)
  let stream () = Cobra_workloads.Kernels.periodic_loop ~trips:80 () in
  let acc d = Perf.branch_accuracy (run ~insns:40_000 d (stream ())) in
  let tage = acc Cobra_eval.Designs.tage_l and b2 = acc Cobra_eval.Designs.b2 in
  check Alcotest.bool (Printf.sprintf "tage-l %.4f > b2 %.4f" tage b2) true (tage > b2);
  check Alcotest.bool "loop exits predicted" true (tage > 0.995)

let test_ubtb_removes_taken_bubbles () =
  (* a tight unconditional loop: a stage-2 BTB pays one bubble per taken
     packet, the 1-cycle uBTB removes it — the low-latency-head design
     point of Section II *)
  let open Cobra_components in
  let jloop () =
    let open Cobra_isa in
    let m =
      Machine.create
        (Program.assemble
           [ Program.label "l"; Program.addi 3 3 1; Program.xor 4 3 3; Program.j "l" ])
    in
    Machine.stream m
  in
  let ipc topo =
    let pl = Pipeline.create Pipeline.default_config topo in
    let core = Cobra_uarch.Core.create Config.default pl (jloop ()) in
    Perf.ipc (Cobra_uarch.Core.run core ~max_insns:9_000)
  in
  let btb_only = ipc (Topology.node (Btb.make (Btb.default ~name:"BTB"))) in
  let with_ubtb =
    ipc
      (Topology.over
         (Btb.make (Btb.default ~name:"BTB"))
         (Topology.node (Ubtb.make (Ubtb.default ~name:"UBTB"))))
  in
  check Alcotest.bool
    (Printf.sprintf "ubtb %.2f well above btb-only %.2f" with_ubtb btb_only)
    true
    (with_ubtb > btb_only *. 1.5)

let test_ras_repair_recovers_accuracy () =
  let stream () = (Cobra_workloads.Suite.find "deepsjeng").Cobra_workloads.Suite.make () in
  let acc repair =
    Perf.branch_accuracy
      (run ~config:{ Config.default with Config.ras_repair = repair }
         Cobra_eval.Designs.tage_l (stream ()))
  in
  let without = acc false and with_repair = acc true in
  check Alcotest.bool
    (Printf.sprintf "repair %.3f > none %.3f" with_repair without)
    true (with_repair > without)

let test_path_history_rescues_pure_indirect () =
  (* a handler rotation with no conditional branches: the direction history
     never moves, so only the path-history-indexed ITTAGE can learn it *)
  let open Cobra_components in
  let topo ~path =
    Topology.over
      (Ittage.make { (Ittage.default ~name:"ITTAGE") with Ittage.use_path_history = path })
      (Topology.node (Btb.make (Btb.default ~name:"BTB")))
  in
  let acc path =
    let pl = Pipeline.create Pipeline.default_config (topo ~path) in
    let core =
      Cobra_uarch.Core.create Config.default pl
        (Cobra_workloads.Kernels.indirect_pure ~targets:4 ())
    in
    Perf.branch_accuracy (Cobra_uarch.Core.run core ~max_insns:20_000)
  in
  let ghist_acc = acc false and phist_acc = acc true in
  check Alcotest.bool
    (Printf.sprintf "phist %.3f well above ghist %.3f" phist_acc ghist_acc)
    true
    (phist_acc > 0.95 && phist_acc > ghist_acc +. 0.2)

let test_ras_handles_deep_call_chains () =
  let perf = run Cobra_eval.Designs.tage_l (Cobra_workloads.Kernels.calls ~depth:8 ()) in
  check Alcotest.bool
    (Printf.sprintf "accuracy %.4f" (Perf.branch_accuracy perf))
    true
    (Perf.branch_accuracy perf > 0.99)

(* --- experiment toggles ----------------------------------------------------------- *)

let test_replay_mode_changes_behaviour () =
  let stream () = (Cobra_workloads.Suite.find "gcc").Cobra_workloads.Suite.make () in
  let with_replay =
    run ~config:{ Config.default with Config.history_divergence = Config.Replay }
      Cobra_eval.Designs.tage_l (stream ())
  in
  let without =
    run ~config:{ Config.default with Config.history_divergence = Config.Repair }
      Cobra_eval.Designs.tage_l (stream ())
  in
  check Alcotest.bool "replays only counted in replay mode" true
    (with_replay.Perf.replays > 0 && without.Perf.replays = 0);
  check Alcotest.bool "divergences observed either way" true
    (without.Perf.history_divergences > 0)

let test_wrong_path_decode_follows_static_jumps () =
  (* A frequently-mispredicted taken branch whose fall-through is a
     never-executed ("cold") region starting with a static jump. With the
     program image available, wrong-path fetch decodes that jump and
     redirects (visible as decode-time misfetches); without it, wrong-path
     placeholders just run sequentially. The BTB never learns cold code, so
     only static decode can know about it. *)
  let open Cobra_isa in
  let program =
    Program.assemble
      ([ Program.j "start" ]
      (* cold region: never executed *)
      @ [ Program.label "cold"; Program.j "cold2" ]
      @ List.init 8 (fun _ -> Program.nop)
      @ [ Program.label "cold2"; Program.nop; Program.j "cold" ]
      @ [ Program.label "start"; Program.insn (Insn.Li (5, 0x1357)) ]
      @ Cobra_workloads.Gen.forever ~label:"loop"
          ~body:
            (Cobra_workloads.Gen.xorshift ~state:5 ~tmp:6
            @ [
                Program.andi 7 5 1;
                (* ~50% taken: chronically mispredicted; its fall-through
                   (label "cold" side) is only ever wrong-path fetched *)
                Program.bne 7 0 "loop";
                Program.j "cold_entry";
                Program.label "cold_entry";
                Program.j "loop";
              ]))
  in
  ignore program;
  (* Simpler deterministic variant: an always-taken branch that starts cold
     (mispredicted while untrained), retrained after every ghist change. *)
  let mk () =
    let m = Machine.create program in
    Machine.stream m
  in
  let run_with decode =
    let pl = Cobra_eval.Designs.pipeline Cobra_eval.Designs.tage_l in
    let core = Cobra_uarch.Core.create ?decode Config.default pl (mk ()) in
    Cobra_uarch.Core.run core ~max_insns:12_000
  in
  let with_decode = run_with (Some (fun pc -> Machine.static_decode program ~pc)) in
  let without = run_with None in
  check Alcotest.bool
    (Printf.sprintf "decode changes wrong-path behaviour (cycles %d vs %d, misfetch %d vs %d)"
       with_decode.Perf.cycles without.Perf.cycles with_decode.Perf.misfetches
       without.Perf.misfetches)
    true
    (with_decode.Perf.cycles <> without.Perf.cycles
    || with_decode.Perf.misfetches <> without.Perf.misfetches);
  let again = run_with (Some (fun pc -> Machine.static_decode program ~pc)) in
  check Alcotest.int "deterministic with decode" with_decode.Perf.cycles again.Perf.cycles

let test_sfb_transform_end_to_end () =
  let make () = (Cobra_workloads.Suite.find "coremark").Cobra_workloads.Suite.make () in
  let base = run Cobra_eval.Designs.tage_l (make ()) in
  let sfb = run Cobra_eval.Designs.tage_l (Cobra_uarch.Sfb.transform (make ())) in
  check Alcotest.bool "fewer branches once hammocks are predicated" true
    (sfb.Perf.branches < base.Perf.branches);
  check Alcotest.bool "fewer mispredicts" true (sfb.Perf.mispredicts <= base.Perf.mispredicts);
  (* the flag is the transform: the core reads its stream through it *)
  let flagged =
    run ~config:{ Config.default with Config.sfb_optimization = true } Cobra_eval.Designs.tage_l
      (make ())
  in
  check
    Alcotest.(list (pair string int))
    "sfb_optimization counters = transformed stream's" (Perf.counters sfb)
    (Perf.counters flagged)

(* --- cross-design determinism / sanity over random kernels -------------------------- *)

let prop_runs_deterministic_across_designs =
  QCheck.Test.make ~name:"every design deterministic on random kernels" ~count:6
    QCheck.(pair (int_range 0 2) (int_bound 1000))
    (fun (design_idx, seed) ->
      let design = List.nth Cobra_eval.Designs.all design_idx in
      let stream () = Cobra_workloads.Kernels.biased ~bias_percent:75 ~seed () in
      let a = run ~insns:4_000 design (stream ()) in
      let b = run ~insns:4_000 design (stream ()) in
      a.Perf.cycles = b.Perf.cycles && a.Perf.mispredicts = b.Perf.mispredicts)

let prop_committed_instructions_exact =
  QCheck.Test.make ~name:"flushes never duplicate or drop instructions" ~count:6
    QCheck.(int_bound 1000)
    (fun seed ->
      (* a finite random program: committed instructions must equal the
         machine's retired count exactly, despite flush/refetch churn *)
      let total_events =
        List.length (Cobra_isa.Trace.take (Cobra_workloads.Kernels.biased ~bias_percent:60 ~seed ()) 3_000)
      in
      let truncated =
        Cobra_isa.Trace.of_list
          (Cobra_isa.Trace.take (Cobra_workloads.Kernels.biased ~bias_percent:60 ~seed ()) 3_000)
      in
      let perf = run ~insns:10_000 Cobra_eval.Designs.tage_l truncated in
      perf.Perf.instructions = total_events)

(* --- pipeline-level history invariants ----------------------------------------------- *)

let test_ghist_restored_after_mispredict_storm () =
  (* after any mispredict, the speculative history must equal the culprit's
     snapshot plus its corrected bits — checked indirectly: two identical
     replays of the same (stream, design) end in identical history *)
  let make () = Cobra_workloads.Kernels.correlated () in
  let final_hist () =
    let pl = Cobra_eval.Designs.pipeline Cobra_eval.Designs.tage_l in
    let core = Cobra_uarch.Core.create Config.default pl (make ()) in
    ignore (Cobra_uarch.Core.run core ~max_insns:8_000);
    Cobra_util.Bits.to_string (Pipeline.ghist_value pl)
  in
  check Alcotest.string "identical end history" (final_hist ()) (final_hist ())

let test_mixed_custom_topology_end_to_end () =
  (* a user-style composition mixing library + extension components *)
  let topo =
    Topology.over
      (Statistical_corrector.make (Statistical_corrector.default ~name:"SC"))
      (Topology.over
         (Hbim.make
            {
              (Hbim.default ~name:"GSHARE" ~indexing:Indexing.(Hash [ Pc; Ghist 12 ])) with
              entries = 4096;
            })
         (Topology.over
            (Btb.make (Btb.default ~name:"BTB"))
            (Topology.node (Ubtb.make (Ubtb.default ~name:"UBTB")))))
  in
  (match Topology.validate topo with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let pl = Pipeline.create Pipeline.default_config topo in
  let core =
    Cobra_uarch.Core.create Config.default pl (Cobra_workloads.Kernels.pattern_ttn ())
  in
  let perf = Cobra_uarch.Core.run core ~max_insns:20_000 in
  check Alcotest.bool
    (Printf.sprintf "custom topology works: %.3f" (Perf.branch_accuracy perf))
    true
    (Perf.branch_accuracy perf > 0.9)

let () =
  Alcotest.run "cobra_integration"
    [
      ( "design orderings",
        [
          Alcotest.test_case "tage-l on patterns" `Quick test_tage_l_wins_on_history_patterns;
          Alcotest.test_case "tourney aliasing" `Quick test_tourney_suffers_aliasing;
          Alcotest.test_case "loop component" `Quick test_loop_component_earns_its_area;
          Alcotest.test_case "ubtb removes bubbles" `Quick test_ubtb_removes_taken_bubbles;
          Alcotest.test_case "ras repair" `Quick test_ras_repair_recovers_accuracy;
          Alcotest.test_case "ras depth" `Quick test_ras_handles_deep_call_chains;
          Alcotest.test_case "path history on pure indirection" `Quick
            test_path_history_rescues_pure_indirect;
        ] );
      ( "toggles",
        [
          Alcotest.test_case "replay mode" `Quick test_replay_mode_changes_behaviour;
          Alcotest.test_case "sfb end-to-end" `Quick test_sfb_transform_end_to_end;
          Alcotest.test_case "wrong-path decode" `Quick test_wrong_path_decode_follows_static_jumps;
        ] );
      ( "properties",
        [
          Prop.test_case prop_runs_deterministic_across_designs;
          Prop.test_case prop_committed_instructions_exact;
          Alcotest.test_case "history reproducible" `Quick
            test_ghist_restored_after_mispredict_storm;
          Alcotest.test_case "custom topology" `Quick test_mixed_custom_topology_end_to_end;
        ] );
    ]
