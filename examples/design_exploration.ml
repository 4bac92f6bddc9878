(* Design exploration across the paper's three predictor designs — a small
   version of the Fig 10 experiment, plus the area/storage columns the
   hardware-guided methodology provides for free.

   Run with: dune exec examples/design_exploration.exe *)

open Cobra_eval
module Perf = Cobra_uarch.Perf

let workloads = [ "x264"; "leela"; "exchange2"; "aliasing" ]
let insns = 40_000

let () =
  let entries = List.map Cobra_workloads.Suite.find workloads in
  Format.printf "design exploration (%d instructions per run)@." insns;
  Format.printf "%-10s %-12s %10s %8s %8s@." "design" "workload" "accuracy" "MPKI" "IPC";
  List.iter
    (fun (d : Designs.t) ->
      List.iter
        (fun w ->
          let r = Experiment.run ~insns d w in
          Format.printf "%-10s %-12s %9.2f%% %8.2f %8.3f@." r.Experiment.design
            r.Experiment.workload
            (100.0 *. Perf.branch_accuracy r.Experiment.perf)
            (Perf.mpki r.Experiment.perf) (Perf.ipc r.Experiment.perf))
        entries;
      let pl = Designs.pipeline d in
      Format.printf "%-10s storage %.1f KB, area %.0f um^2@.@." d.Designs.name
        (Cobra.Storage.kilobytes (Cobra.Pipeline.storage pl))
        (Cobra_synth.Area.pipeline_total pl))
    Designs.all;
  Format.printf
    "Expected shape: TAGE-L leads on aliasing-heavy code (tagged tables),@.\
     all three are close on the predictable kernels.@."
