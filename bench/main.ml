(* Paper harness: regenerates every table and figure of the paper
   (Tables I-III, Figs 7-10, the Section I/VI experiments) and the
   extension sweeps from this repository's implementation. The simulator's
   own speed is measured by the benchmark under perfbench/, not here.

   Scale with COBRA_INSNS (default 100_000 instructions per run) and
   COBRA_JOBS (parallel simulation workers; 1 reproduces the serial
   harness); `cobra list env` prints every knob. A COBRA_* name that is not
   a knob, or a malformed value, stops the harness before any section.
   Pass section names as arguments to run a subset, e.g.
   [dune exec bench/main.exe -- table_1 figure_10]; [--list] prints the
   valid section names. Each section's text goes to stdout and its
   [[<section> took N s]] line to stderr, so stdout is deterministic. *)

open Cobra_eval

let ablation (o : Ablations.outcome) =
  Printf.sprintf "%s\npaper [%s]: %s\nmeasured:   %s\n" o.Ablations.report o.Ablations.id
    o.Ablations.paper_claim o.Ablations.measured

let figure_10 () =
  Figures.figure_10 (Experiment.run_matrix Designs.all Cobra_workloads.Suite.specint)
  ^ Printf.sprintf "\npaper shape check: %s\n" (List.assoc "Fig10" Reference.paper_claims)

let energy () =
  String.concat ""
    (List.map
       (fun (d : Designs.t) ->
         let pl = Designs.pipeline d in
         let e = Cobra_synth.Energy.of_pipeline pl in
         Printf.sprintf "%-8s predict %.1f pJ, update %.1f pJ, ~%.2f nJ/kilo-instruction\n"
           d.Designs.name e.Cobra_synth.Energy.predict_pj e.Cobra_synth.Energy.update_pj
           (Cobra_synth.Energy.per_kilo_instruction pl ~packets_per_ki:400.0))
       Designs.all)

(* Every section, in the order a full run prints them: a name and a thunk
   returning the section's text. *)
let sections =
  [
    ("table_1", Tables.table_1);
    ("table_2", Tables.table_2);
    ("table_3", Tables.table_3);
    ("table_attribution", fun () -> Tables.table_attribution ());
    ("figure_7", Figures.figure_7);
    ("figure_8", Figures.figure_8);
    ("figure_9", Figures.figure_9);
    ("figure_10", figure_10);
    ("ablation_serialized_fetch", fun () -> ablation (Ablations.serialized_fetch ()));
    ("ablation_tage_latency", fun () -> ablation (Ablations.tage_latency ()));
    ("ablation_history_repair", fun () -> ablation (Ablations.history_repair ()));
    ("ablation_sfb", fun () -> ablation (Ablations.short_forward_branch ()));
  ]
  @ List.map
      (fun (s : Sweeps.t) ->
        ( "sweep_" ^ String.map (function '-' -> '_' | c -> c) s.Sweeps.name,
          fun () -> s.Sweeps.run () ))
      Sweeps.all
  @ [
      ("software_vs_hardware", fun () -> Cobra_trace_replay.Software_model.comparison_report ());
      ("energy", energy);
    ]

let () =
  (try Cobra_util.Env.check ()
   with Failure m ->
     Printf.eprintf "error: %s\n" m;
     exit 2);
  let names = List.map fst sections in
  let args = List.tl (Array.to_list Sys.argv) in
  if List.exists (fun a -> a = "--list" || a = "-l") args then begin
    List.iter print_endline names;
    exit 0
  end;
  (match List.filter (fun a -> not (List.mem a names)) args with
  | [] -> ()
  | unknown ->
    Printf.eprintf "error: unknown section%s %s\nvalid sections:\n%s\n"
      (if List.length unknown = 1 then "" else "s")
      (String.concat ", " (List.map (Printf.sprintf "%S") unknown))
      (String.concat "\n" (List.map (fun n -> "  " ^ n) names));
    exit 2);
  Printf.printf "COBRA benchmark harness (insns per run: %d)\n" (Experiment.default_insns ());
  List.iter
    (fun (name, text) ->
      if args = [] || List.mem name args then begin
        Printf.printf "\n================ %s ================\n%!" name;
        let t0 = Unix.gettimeofday () in
        print_string (text ());
        flush stdout;
        Printf.eprintf "[%s took %.1f s]\n%!" name (Unix.gettimeofday () -. t0)
      end)
    sections
