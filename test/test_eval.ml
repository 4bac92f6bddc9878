open Cobra_eval

let check = Alcotest.check

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec loop i = i + nn <= nh && (String.sub haystack i nn = needle || loop (i + 1)) in
  loop 0

(* --- designs --------------------------------------------------------------- *)

let test_designs_validate () =
  List.iter
    (fun (d : Designs.t) ->
      match Cobra.Topology.validate (d.Designs.make ()) with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s invalid: %s" d.Designs.name msg)
    Designs.all

let test_design_expressions () =
  let expr d = Cobra.Topology.to_expression (d.Designs.make ()) in
  check Alcotest.string "TAGE-L" "LOOP_3 > TAGE_3 > BTB_2 > BIM_2 > UBTB_1"
    (expr Designs.tage_l);
  check Alcotest.string "B2" "GTAG_3 > BTB_2 > BIM_2" (expr Designs.b2);
  check Alcotest.string "Tourney" "TOURNEY_3 > [GBIM_2 > BTB_2, LBIM_2]"
    (expr Designs.tourney)

let test_storage_close_to_table_1 () =
  (* the direction-state storage convention should land within 40% of the
     paper's numbers *)
  List.iter
    (fun (d : Designs.t) ->
      let ours = Designs.direction_state_kb d in
      let paper = (List.assoc d.Designs.name Reference.table_1).Reference.storage_kb in
      let ratio = ours /. paper in
      check Alcotest.bool
        (Printf.sprintf "%s: %.1f KB vs paper %.1f KB" d.Designs.name ours paper)
        true
        (ratio > 0.6 && ratio < 1.4))
    Designs.all

let test_fresh_pipelines_are_untrained () =
  let d = Designs.tage_l in
  let p1 = Designs.pipeline d and p2 = Designs.pipeline d in
  check Alcotest.bool "distinct component instances" true
    (Cobra.Pipeline.components p1 != Cobra.Pipeline.components p2)

let test_tage_latency_variant () =
  let d = Designs.tage_l_with_latency 2 in
  check Alcotest.int "pipeline depth follows component latency" 3
    (Cobra.Pipeline.depth (Designs.pipeline d));
  (* LOOP_3 still forces depth 3; the TAGE node itself is latency 2 *)
  let comps = Cobra.Topology.components (d.Designs.make ()) in
  let tage = List.find (fun (c : Cobra.Component.t) -> c.Cobra.Component.name = "TAGE") comps in
  check Alcotest.int "tage latency" 2 tage.Cobra.Component.latency

(* --- experiments ----------------------------------------------------------------- *)

let test_experiment_deterministic () =
  let w = Cobra_workloads.Suite.find "pattern-ttn" in
  let a = Experiment.run ~insns:5_000 Designs.b2 w in
  let b = Experiment.run ~insns:5_000 Designs.b2 w in
  check Alcotest.int "cycles equal" a.Experiment.perf.Cobra_uarch.Perf.cycles
    b.Experiment.perf.Cobra_uarch.Perf.cycles

let test_matrix_covers_grid () =
  let ws =
    List.map Cobra_workloads.Suite.find [ "loop7"; "calls" ]
  in
  let rs = Experiment.run_matrix ~insns:3_000 Designs.all ws in
  check Alcotest.int "3 designs x 2 workloads" 6 (List.length rs);
  ignore (Experiment.find rs ~design:"B2" ~workload:"calls")

(* --- emitters ---------------------------------------------------------------------- *)

let test_table_emitters () =
  let t1 = Tables.table_1 () in
  check Alcotest.bool "t1 mentions TAGE-L" true (contains t1 "TAGE-L");
  check Alcotest.bool "t1 mentions paper storage" true (contains t1 "28.0 KB");
  let t2 = Tables.table_2 () in
  check Alcotest.bool "t2 mentions ROB" true (contains t2 "128-entry ROB");
  let t3 = Tables.table_3 () in
  check Alcotest.bool "t3 mentions Skylake" true (contains t3 "Skylake")

let test_figure_7_emitter () =
  let f = Figures.figure_7 () in
  check Alcotest.bool "has stage lines" true (contains f "Fetch-1");
  check Alcotest.bool "has tourney expression" true (contains f "TOURNEY_3 > [")

let test_figure_8_9_emitters () =
  check Alcotest.bool "fig8 has Meta" true (contains (Figures.figure_8 ()) "Meta");
  check Alcotest.bool "fig9 has issue units" true (contains (Figures.figure_9 ()) "Issue units")

let test_figure_10_emitter () =
  let ws = Cobra_workloads.Suite.specint in
  let rs = Experiment.run_matrix ~insns:2_000 Designs.all ws in
  let f = Figures.figure_10 rs in
  check Alcotest.bool "has harmonic mean" true (contains f "HARMEAN");
  check Alcotest.bool "has all benchmarks" true
    (List.for_all (fun b -> contains f b) Reference.benchmarks)

(* --- sweeps ----------------------------------------------------------------------- *)

let test_sweep_reports () =
  let sweep name =
    (List.find (fun (s : Sweeps.t) -> s.Sweeps.name = name) Sweeps.all).Sweeps.run ~insns:1_500 ()
  in
  List.iter
    (fun (name, marker) ->
      check Alcotest.bool ("report mentions " ^ marker) true (contains (sweep name) marker))
    [
      ("storage", "TAGE KB");
      ("indexing", "ghist[10]");
      ("ubtb", "UBTB_1");
      ("ittage", "ITTAGE");
      ("ras", "checkpointed");
      ("fetch-width", "width");
    ]

(* --- ablations -------------------------------------------------------------------- *)

(* Regression: the VI-B Dhrystone sensitivity runs used to be recovered from
   the flat result list by index arithmetic (List.nth at 3*n), which silently
   mispaired results whenever the job list changed shape. Each cell of the
   grid now reads its own result; both Dhrystone variants must be found and
   the report must be coherent. *)
let test_history_repair_keyed_results () =
  let o = Ablations.history_repair ~insns:400 () in
  check Alcotest.string "id" "VI-B" o.Ablations.id;
  check Alcotest.bool "Dhrystone sensitivity present" true
    (contains o.Ablations.measured "Dhrystone replay IPC");
  check Alcotest.bool "per-workload table present" true
    (contains o.Ablations.report "IPC repair")

(* Exact pins for the paths only the uarch core drives through the
   interpreted pipeline: several pending packets, divergence repair without
   a squash, and fire without predecode correction. TAGE-L on gcc at 5,000
   instructions under the VI-B modes of [Ablations.history_repair], each
   set by [Config.history_divergence] alone. *)
let test_history_repair_modes_pinned () =
  let module Config = Cobra_uarch.Config in
  let module Perf = Cobra_uarch.Perf in
  let gcc = Cobra_workloads.Suite.find "gcc" in
  List.iter
    (fun (mode, config, (cycles, mispredicts, flushes, divergences, replays)) ->
      let p = (Experiment.run ~insns:5_000 ~config Designs.tage_l gcc).Experiment.perf in
      let pin what want got = check Alcotest.int (mode ^ ": " ^ what) want got in
      pin "cycles" cycles p.Perf.cycles;
      pin "mispredicts" mispredicts p.Perf.mispredicts;
      pin "flushes" flushes p.Perf.flushes;
      pin "history_divergences" divergences p.Perf.history_divergences;
      pin "replays" replays p.Perf.replays)
    [
      ( "none",
        { Config.default with Config.history_divergence = Config.Ignore },
        (6345, 426, 426, 1168, 0) );
      ( "repair",
        { Config.default with Config.history_divergence = Config.Repair },
        (6300, 416, 416, 634, 0) );
      ("replay", Config.default, (6342, 395, 395, 591, 591));
    ]

(* --- reference data ------------------------------------------------------------------ *)

let test_reference_complete () =
  List.iter
    (fun (s : Reference.series) ->
      List.iter
        (fun b ->
          check Alcotest.bool (s.Reference.system ^ "/" ^ b) true
            (List.mem_assoc b s.Reference.mpki && List.mem_assoc b s.Reference.ipc))
        Reference.benchmarks)
    [ Reference.skylake; Reference.graviton ]

let test_paper_claims_cover_experiments () =
  List.iter
    (fun id ->
      check Alcotest.bool id true (List.mem_assoc id Reference.paper_claims))
    [ "I-intro"; "VI-A"; "VI-B"; "VI-C"; "Fig10"; "Fig8"; "Fig9" ]

let () =
  Alcotest.run "cobra_eval"
    [
      ( "designs",
        [
          Alcotest.test_case "validate" `Quick test_designs_validate;
          Alcotest.test_case "expressions" `Quick test_design_expressions;
          Alcotest.test_case "storage vs Table I" `Quick test_storage_close_to_table_1;
          Alcotest.test_case "fresh pipelines" `Quick test_fresh_pipelines_are_untrained;
          Alcotest.test_case "latency variant" `Quick test_tage_latency_variant;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "deterministic" `Quick test_experiment_deterministic;
          Alcotest.test_case "matrix grid" `Quick test_matrix_covers_grid;
        ] );
      ( "emitters",
        [
          Alcotest.test_case "tables" `Quick test_table_emitters;
          Alcotest.test_case "figure 7" `Quick test_figure_7_emitter;
          Alcotest.test_case "figures 8/9" `Quick test_figure_8_9_emitters;
          Alcotest.test_case "figure 10" `Slow test_figure_10_emitter;
        ] );
      ("sweeps", [ Alcotest.test_case "reports" `Slow test_sweep_reports ]);
      ( "ablations",
        [
          Alcotest.test_case "VI-B keyed results" `Quick test_history_repair_keyed_results;
          Alcotest.test_case "VI-B modes pinned" `Quick test_history_repair_modes_pinned;
        ] );
      ( "reference",
        [
          Alcotest.test_case "complete" `Quick test_reference_complete;
          Alcotest.test_case "claims" `Quick test_paper_claims_cover_experiments;
        ] );
    ]
