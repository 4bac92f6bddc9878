(* Paper harness: regenerates every table and figure of the paper
   (Tables I-III, Figs 7-10, the Section I/VI experiments) and the
   extension sweeps from this repository's implementation. The simulator's
   own speed is measured by the benchmark under perfbench/, not here.

   Scale with COBRA_INSNS (default 100_000 instructions per run) and
   COBRA_JOBS (parallel simulation workers; 1 reproduces the serial
   harness). Pass section names as arguments to run a subset, e.g.
   [dune exec bench/main.exe -- table_1 figure_10]; [--list] prints the
   valid section names. *)

open Cobra_eval

let banner name =
  Printf.printf "\n================ %s ================\n%!" name

let timed label f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  Printf.printf "[%s took %.1f s]\n%!" label (Unix.gettimeofday () -. t0);
  r

(* --- tables -------------------------------------------------------------- *)

let table_1 () = print_string (Tables.table_1 ())
let table_2 () = print_string (Tables.table_2 ())
let table_3 () = print_string (Tables.table_3 ())

let table_attribution () =
  print_string
    (timed "table_attribution" (fun () -> Tables.table_attribution ()))

(* --- figures ------------------------------------------------------------- *)

let figure_7 () = print_string (Figures.figure_7 ())
let figure_8 () = print_string (Figures.figure_8 ())
let figure_9 () = print_string (Figures.figure_9 ())

let figure_10 () =
  let results =
    timed "figure_10 runs" (fun () ->
        Experiment.run_matrix Designs.all Cobra_workloads.Suite.specint)
  in
  print_string (Figures.figure_10 results);
  Printf.printf "\npaper shape check: %s\n" (List.assoc "Fig10" Reference.paper_claims)

(* --- ablations ------------------------------------------------------------ *)

let ablation o =
  let { Ablations.id; paper_claim; measured; report } = o in
  Printf.printf "%s\n" report;
  Printf.printf "paper [%s]: %s\n" id paper_claim;
  Printf.printf "measured:   %s\n" measured

let ablation_serialized_fetch () =
  ablation (timed "serialized_fetch" (fun () -> Ablations.serialized_fetch ()))

let ablation_tage_latency () =
  ablation (timed "tage_latency" (fun () -> Ablations.tage_latency ()))

let ablation_history_repair () =
  ablation (timed "history_repair" (fun () -> Ablations.history_repair ()))

let ablation_sfb () =
  ablation (timed "sfb" (fun () -> Ablations.short_forward_branch ()))

(* --- design-space sweeps (extensions) ----------------------------------------- *)

let sweep name f () = print_string (timed name f)

let sweep_storage = sweep "tage_storage_sweep" (fun () -> Sweeps.tage_storage_sweep ())
let sweep_ubtb = sweep "ubtb_value" (fun () -> Sweeps.ubtb_value ())
let sweep_fetch_width = sweep "fetch_width_sweep" (fun () -> Sweeps.fetch_width_sweep ())
let sweep_indexing = sweep "indexing_ablation" (fun () -> Sweeps.indexing_ablation ())
let sweep_ittage = sweep "indirect_predictor" (fun () -> Sweeps.indirect_predictor ())
let sweep_ras = sweep "ras_repair" (fun () -> Sweeps.ras_repair ())
let sweep_sc = sweep "sc_value" (fun () -> Sweeps.statistical_corrector_value ())
let sweep_core_size = sweep "core_size" (fun () -> Sweeps.core_size ())
let sweep_families = sweep "cbp_families" (fun () -> Sweeps.gehl_vs_tage ())

let software_vs_hardware () =
  print_string
    (timed "software_vs_hardware" (fun () ->
         Cobra_trace_replay.Software_model.comparison_report ()))

(* --- energy (extension) ----------------------------------------------------- *)

let energy () =
  List.iter
    (fun (d : Designs.t) ->
      let pl = Designs.pipeline d in
      let e = Cobra_synth.Energy.of_pipeline pl in
      Printf.printf "%-8s predict %.1f pJ, update %.1f pJ, ~%.2f nJ/kilo-instruction\n"
        d.Designs.name e.Cobra_synth.Energy.predict_pj e.Cobra_synth.Energy.update_pj
        (Cobra_synth.Energy.per_kilo_instruction pl ~packets_per_ki:400.0))
    Designs.all

(* --- main ---------------------------------------------------------------------- *)

let sections =
  [
    ("table_1", table_1);
    ("table_2", table_2);
    ("table_3", table_3);
    ("table_attribution", table_attribution);
    ("figure_7", figure_7);
    ("figure_8", figure_8);
    ("figure_9", figure_9);
    ("figure_10", figure_10);
    ("ablation_serialized_fetch", ablation_serialized_fetch);
    ("ablation_tage_latency", ablation_tage_latency);
    ("ablation_history_repair", ablation_history_repair);
    ("ablation_sfb", ablation_sfb);
    ("sweep_storage", sweep_storage);
    ("sweep_ubtb", sweep_ubtb);
    ("sweep_fetch_width", sweep_fetch_width);
    ("sweep_indexing", sweep_indexing);
    ("sweep_ittage", sweep_ittage);
    ("sweep_ras", sweep_ras);
    ("sweep_sc", sweep_sc);
    ("sweep_core_size", sweep_core_size);
    ("sweep_families", sweep_families);
    ("software_vs_hardware", software_vs_hardware);
    ("energy", energy);
  ]

let section_names = List.map fst sections

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  if List.exists (fun a -> a = "--list" || a = "-l") args then begin
    List.iter print_endline section_names;
    exit 0
  end;
  (match List.filter (fun a -> not (List.mem_assoc a sections)) args with
  | [] -> ()
  | unknown ->
    Printf.eprintf "error: unknown section%s %s\nvalid sections:\n%s\n"
      (if List.length unknown = 1 then "" else "s")
      (String.concat ", " (List.map (Printf.sprintf "%S") unknown))
      (String.concat "\n" (List.map (fun n -> "  " ^ n) section_names));
    exit 2);
  let enabled name = args = [] || List.mem name args in
  Printf.printf "COBRA benchmark harness (insns per run: %d)\n" (Experiment.default_insns ());
  List.iter
    (fun (name, f) ->
      if enabled name then begin
        banner name;
        f ()
      end)
    sections
