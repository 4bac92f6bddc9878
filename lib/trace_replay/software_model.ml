module Designs = Cobra_eval.Designs
module Suite = Cobra_workloads.Suite
module Text = Cobra_util.Text_render

let run ?insns ?observe (design : Designs.t) (workload : Suite.entry) =
  let insns = Option.value insns ~default:(Cobra_eval.Experiment.default_insns ()) in
  Replay.drive ?observe ~design:design.Designs.name ~trace:workload.Suite.name
    (Replay.Sim.create `Interpreted design)
    (Btrace.of_stream ~max_insns:insns (workload.Suite.make ()))

let comparison_report ?insns () =
  let workloads = List.map Suite.find [ "gcc"; "mcf"; "x264"; "leela"; "exchange2" ] in
  let rows =
    List.concat_map
      (fun w ->
        List.map
          (fun d ->
            let sw = run ?insns d w in
            let hw = Cobra_eval.Experiment.run ?insns d w in
            let sw_acc = 100.0 *. Replay.accuracy sw in
            let hw_acc =
              100.0 *. Cobra_uarch.Perf.branch_accuracy hw.Cobra_eval.Experiment.perf
            in
            [
              sw.Replay.trace;
              sw.Replay.design;
              Text.float_cell ~decimals:2 sw_acc;
              Text.float_cell ~decimals:2 hw_acc;
              Printf.sprintf "%+.2f" (sw_acc -. hw_acc);
            ])
          Designs.all)
      workloads
  in
  Text.table
    ~title:
      "Software (trace-based) vs hardware-guided evaluation of the same composed pipelines \
       (paper Section II-B: software models mis-estimate, and the error is design-dependent)"
    ~header:[ "workload"; "design"; "sw acc%"; "hw acc%"; "sw - hw" ]
    ~rows ()
