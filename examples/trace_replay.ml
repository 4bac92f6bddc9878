(* Trace capture and replay: dump a workload's retired-path trace to a
   CBP-style text file, reload it, and drive (a) the hardware-guided core
   model and (b) the naive trace-based software simulator over the very same
   pipeline — showing in one screen why the paper argues for hardware-guided
   evaluation.

   Run with: dune exec examples/trace_replay.exe *)

module Trace = Cobra_isa.Trace
module Perf = Cobra_uarch.Perf

let () =
  let entry = Cobra_workloads.Suite.find "coremark" in
  let events = Trace.take (entry.Cobra_workloads.Suite.make ()) 60_000 in
  let path = Filename.temp_file "cobra_coremark" ".trace" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Cobra_isa.Trace_file.save ~path events;
  (* the file name is random: leave it out, so the output is reproducible *)
  Format.printf "captured %d events (%d KB)@." (List.length events)
    ((Unix.stat path).Unix.st_size / 1024);

  (* replay through the hardware-guided core model *)
  let design = Cobra_eval.Designs.tage_l in
  let pl = Cobra_eval.Designs.pipeline design in
  let core =
    Cobra_uarch.Core.create Cobra_uarch.Config.default pl
      (Cobra_isa.Trace_file.load_stream ~path)
  in
  let hw = Cobra_uarch.Core.run core ~max_insns:60_000 in
  Format.printf "@.hardware-guided replay (%s):@.  %a@." design.Cobra_eval.Designs.name
    Perf.pp hw;

  (* the same pipeline evaluated trace-based-style *)
  let sw = Cobra_trace_replay.Software_model.run ~insns:60_000 design entry in
  Format.printf "@.software (trace-based) estimate of the same pipeline:@.";
  Format.printf "  branches=%d mispredicts=%d accuracy=%.2f%%@."
    sw.Cobra_trace_replay.Replay.branches sw.Cobra_trace_replay.Replay.mispredicts
    (100.0 *. Cobra_trace_replay.Replay.accuracy sw);
  Format.printf
    "@.The software model sees no fetch bubbles, no wrong-path fetch, no@.\
     speculative-history corruption and no repair traffic — its accuracy@.\
     estimate differs from the measured one, and it cannot estimate IPC@.\
     at all (paper Section II-B).@."
