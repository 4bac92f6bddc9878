open Cobra_synth

let check = Alcotest.check

(* --- SRAM compiler ------------------------------------------------------------ *)

let test_sram_area_monotonic () =
  let area bits = Sram_compiler.area_of_bits bits in
  check Alcotest.bool "more bits, more area" true (area 65536 > area 8192);
  check Alcotest.bool "zero bits, zero area" true (area 0 = 0.0)

let test_sram_dual_port_penalty () =
  let spec ports = { Sram_compiler.depth = 1024; width = 32; ports } in
  let single = (Sram_compiler.map (spec 1)).Sram_compiler.area_um2 in
  let dual = (Sram_compiler.map (spec 2)).Sram_compiler.area_um2 in
  check Alcotest.bool "dual port costs more" true (dual > single *. 1.5)

let test_sram_macro_splitting () =
  let r = Sram_compiler.map { Sram_compiler.depth = 32768; width = 64; ports = 1 } in
  check Alcotest.bool "large memory needs several macros" true (r.Sram_compiler.macros >= 4)

let prop_sram_area_positive =
  QCheck.Test.make ~name:"sram area positive" ~count:100
    QCheck.(pair (int_range 1 100000) (int_range 1 128))
    (fun (depth, width) ->
      (Sram_compiler.map { Sram_compiler.depth; width; ports = 1 }).Sram_compiler.area_um2
      > 0.0)

(* --- area model ------------------------------------------------------------------ *)

let test_breakdown_covers_components_plus_meta () =
  let pl = Cobra_eval.Designs.pipeline Cobra_eval.Designs.tage_l in
  let bd = Area.pipeline_breakdown pl in
  let labels = List.map (fun b -> b.Area.label) bd in
  check Alcotest.bool "has TAGE" true (List.mem "TAGE" labels);
  check Alcotest.bool "has Meta" true (List.mem "Meta" labels);
  check Alcotest.int "one entry per component + meta" 6 (List.length bd);
  List.iter (fun b -> check Alcotest.bool (b.Area.label ^ " positive") true (b.Area.area_um2 > 0.0)) bd

let test_fig8_shape_tagged_structures_dominate () =
  (* the paper's Fig 8 observation: tagged components (TAGE, BTB) are the
     expensive ones *)
  let pl = Cobra_eval.Designs.pipeline Cobra_eval.Designs.tage_l in
  let bd = Area.pipeline_breakdown pl in
  let area label = (List.find (fun b -> b.Area.label = label) bd).Area.area_um2 in
  check Alcotest.bool "TAGE > BIM" true (area "TAGE" > area "BIM");
  check Alcotest.bool "BTB > BIM" true (area "BTB" > area "BIM");
  check Alcotest.bool "Meta non-trivial (> 2% of total)" true
    (area "Meta" > 0.02 *. Area.pipeline_total pl)

let test_fig9_shape_predictor_is_small_slice () =
  List.iter
    (fun (d : Cobra_eval.Designs.t) ->
      let pl = Cobra_eval.Designs.pipeline d in
      let bd = Area.core_breakdown pl in
      let total = List.fold_left (fun acc b -> acc +. b.Area.area_um2) 0.0 bd in
      let pred = (List.find (fun b -> b.Area.label = "Branch predictor") bd).Area.area_um2 in
      let share = pred /. total in
      check Alcotest.bool
        (Printf.sprintf "%s predictor share %.1f%% < 15%%" d.Cobra_eval.Designs.name
           (100.0 *. share))
        true (share < 0.15))
    Cobra_eval.Designs.all

let test_design_area_ordering () =
  let total d = Area.pipeline_total (Cobra_eval.Designs.pipeline d) in
  check Alcotest.bool "TAGE-L largest" true
    (total Cobra_eval.Designs.tage_l > total Cobra_eval.Designs.b2
    && total Cobra_eval.Designs.tage_l > total Cobra_eval.Designs.tourney)

(* --- timing ------------------------------------------------------------------------ *)

let test_tage_latency_timing_narrative () =
  (* paper VI-A: the 2-cycle TAGE arbitration created a critical path; the
     3-cycle version meets timing *)
  let p2 = Timing.tage_path ~latency:2 ~tables:7 ~tag_bits:9 () in
  let p3 = Timing.tage_path ~latency:3 ~tables:7 ~tag_bits:9 () in
  check Alcotest.bool "2-cycle fails 1 GHz" false p2.Timing.meets_clock;
  check Alcotest.bool "3-cycle meets 1 GHz" true p3.Timing.meets_clock;
  check Alcotest.bool "more stages, shorter slice" true
    (p3.Timing.delay_ps < p2.Timing.delay_ps)

let test_timing_monotonic_in_arbitration () =
  let path n = (Timing.table_read_path ~stages:1 ~tag_bits:9 ~arbitration_inputs:n ()).Timing.delay_ps in
  check Alcotest.bool "wider arbitration is slower" true (path 16 > path 2)

(* --- energy ------------------------------------------------------------------------- *)

let test_energy_positive_and_ordered () =
  let e d = (Energy.of_pipeline (Cobra_eval.Designs.pipeline d)).Energy.predict_pj in
  check Alcotest.bool "positive" true (e Cobra_eval.Designs.b2 > 0.0);
  check Alcotest.bool "bigger predictor, more energy" true
    (e Cobra_eval.Designs.tage_l > e Cobra_eval.Designs.b2)

let () =
  Alcotest.run "cobra_synth"
    [
      ( "sram",
        [
          Alcotest.test_case "monotonic" `Quick test_sram_area_monotonic;
          Alcotest.test_case "dual port" `Quick test_sram_dual_port_penalty;
          Alcotest.test_case "macro splitting" `Quick test_sram_macro_splitting;
          Prop.test_case prop_sram_area_positive;
        ] );
      ( "area",
        [
          Alcotest.test_case "breakdown coverage" `Quick test_breakdown_covers_components_plus_meta;
          Alcotest.test_case "fig8 shape" `Quick test_fig8_shape_tagged_structures_dominate;
          Alcotest.test_case "fig9 shape" `Quick test_fig9_shape_predictor_is_small_slice;
          Alcotest.test_case "design ordering" `Quick test_design_area_ordering;
        ] );
      ( "timing",
        [
          Alcotest.test_case "VI-A narrative" `Quick test_tage_latency_timing_narrative;
          Alcotest.test_case "arbitration width" `Quick test_timing_monotonic_in_arbitration;
        ] );
      ("energy", [ Alcotest.test_case "positive/ordered" `Quick test_energy_positive_and_ordered ]);
    ]
