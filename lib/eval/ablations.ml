module Text = Cobra_util.Text_render
module Stats = Cobra_util.Stats
module Perf = Cobra_uarch.Perf
module Config = Cobra_uarch.Config

type outcome = {
  id : string;
  paper_claim : string;
  measured : string;
  report : string;
}

let claim id = List.assoc id Reference.paper_claims

(* A representative SPEC-like subset keeps the ablations affordable. *)
let spec_subset () =
  List.filter
    (fun (e : Cobra_workloads.Suite.entry) ->
      List.mem e.Cobra_workloads.Suite.name
        [ "gcc"; "mcf"; "xalancbmk"; "x264"; "leela"; "exchange2" ])
    Cobra_workloads.Suite.specint

let dhrystone () = Cobra_workloads.Suite.find "dhrystone"
let coremark () = Cobra_workloads.Suite.find "coremark"

let pct = Stats.percent_delta

(* --- VI-A: TAGE latency ------------------------------------------------------ *)

let tage_latency ?insns () =
  let timing latency = Cobra_synth.Timing.tage_path ~latency ~tables:7 ~tag_bits:9 () in
  let t2 = timing 2 and t3 = timing 3 in
  let workloads = spec_subset () in
  let at latency w =
    Experiment.cell (Experiment.job ?insns (Designs.tage_l_with_latency latency) w)
  in
  let pairs =
    Experiment.run_jobs ~label:"ablation:VI-A"
      (Experiment.all (List.map (fun w -> Experiment.pair (at 2 w) (at 3 w)) workloads))
  in
  let r2 = List.map fst pairs and r3 = List.map snd pairs in
  let mean_ipc rs = Stats.harmonic_mean (List.map (fun r -> Perf.ipc r.Experiment.perf) rs) in
  let mean_acc rs =
    Stats.mean (List.map (fun r -> 100.0 *. Perf.branch_accuracy r.Experiment.perf) rs)
  in
  let ipc2 = mean_ipc r2 and ipc3 = mean_ipc r3 in
  let acc2 = mean_acc r2 and acc3 = mean_acc r3 in
  let rows =
    List.map
      (fun (a, b) ->
        [
          a.Experiment.workload;
          Text.float_cell (Perf.ipc a.Experiment.perf);
          Text.float_cell (Perf.ipc b.Experiment.perf);
          Text.float_cell ~decimals:2 (100.0 *. Perf.branch_accuracy a.Experiment.perf);
          Text.float_cell ~decimals:2 (100.0 *. Perf.branch_accuracy b.Experiment.perf);
        ])
      pairs
  in
  let report =
    Printf.sprintf "%s\n%s\n"
      (Text.table ~title:"VI-A: TAGE response latency (2 vs 3 cycles)"
         ~header:[ "workload"; "IPC lat2"; "IPC lat3"; "acc%% lat2"; "acc%% lat3" ]
         ~rows ())
      (Printf.sprintf
         "timing model: lat2 slice %d ps (%s) -> meets 1 GHz: %b; lat3 slice %d ps -> meets: \
          %b"
         t2.Cobra_synth.Timing.delay_ps t2.Cobra_synth.Timing.description
         t2.Cobra_synth.Timing.meets_clock t3.Cobra_synth.Timing.delay_ps
         t3.Cobra_synth.Timing.meets_clock)
  in
  {
    id = "VI-A";
    paper_claim = claim "VI-A";
    measured =
      Printf.sprintf
        "accuracy %.2f%% -> %.2f%%; IPC %.3f -> %.3f (%.1f%%); lat2 fails timing (%d ps), \
         lat3 meets (%d ps)"
        acc2 acc3 ipc2 ipc3 (pct ~baseline:ipc2 ipc3) t2.Cobra_synth.Timing.delay_ps
        t3.Cobra_synth.Timing.delay_ps;
    report;
  }

(* --- VI-B: global-history repair + replay ------------------------------------- *)

let history_repair ?insns () =
  let workloads = spec_subset () in
  (* Three management levels for the speculative global history, one per
     [Config.history_divergence]:
     - none:   Fetch-1 bits are never corrected (no repair at all);
     - repair: the register is repaired on divergences, in-flight
               predictions are not replayed (the paper's original design);
     - replay: repairing also replays fetch (the paper's alternate). *)
  let run mode w =
    Experiment.cell
      (Experiment.job ?insns
         ~config:{ Config.default with Config.history_divergence = mode }
         Designs.tage_l w)
  in
  let modes w =
    Experiment.pair (run Config.Ignore w)
      (Experiment.pair (run Config.Repair w) (run Config.Replay w))
  in
  let per_workload, (dhry_nr, dhry_r) =
    Experiment.run_jobs ~label:"ablation:VI-B"
      (Experiment.pair
         (Experiment.all (List.map modes workloads))
         (Experiment.pair (run Config.Repair (dhrystone ())) (run Config.Replay (dhrystone ()))))
  in
  let none = List.map fst per_workload in
  let no_replay = List.map (fun (_, (r, _)) -> r) per_workload
  and replay = List.map (fun (_, (_, r)) -> r) per_workload in
  let mean_ipc rs = Stats.harmonic_mean (List.map (fun r -> Perf.ipc r.Experiment.perf) rs) in
  let total_mispredicts rs =
    List.fold_left (fun acc r -> acc + r.Experiment.perf.Perf.mispredicts) 0 rs
  in
  let ipc_none = mean_ipc none and ipc_nr = mean_ipc no_replay and ipc_r = mean_ipc replay in
  let mp_none = total_mispredicts none in
  let mp_nr = total_mispredicts no_replay and mp_r = total_mispredicts replay in
  let rows =
    List.map
      (fun (a, (b, c)) ->
        [
          a.Experiment.workload;
          Text.float_cell (Perf.ipc a.Experiment.perf);
          Text.float_cell (Perf.ipc b.Experiment.perf);
          Text.float_cell (Perf.ipc c.Experiment.perf);
          string_of_int a.Experiment.perf.Perf.mispredicts;
          string_of_int b.Experiment.perf.Perf.mispredicts;
          string_of_int c.Experiment.perf.Perf.mispredicts;
          string_of_int c.Experiment.perf.Perf.replays;
        ])
      per_workload
  in
  {
    id = "VI-B";
    paper_claim = claim "VI-B";
    measured =
      Printf.sprintf
        "vs no management: repair %+.1f%% IPC / %+.1f%% mispredicts; repair+replay %+.1f%% \
         IPC / %+.1f%% mispredicts; Dhrystone replay IPC %+.1f%%"
        (pct ~baseline:ipc_none ipc_nr)
        (pct ~baseline:(float_of_int mp_none) (float_of_int mp_nr))
        (pct ~baseline:ipc_none ipc_r)
        (pct ~baseline:(float_of_int mp_none) (float_of_int mp_r))
        (pct
           ~baseline:(Perf.ipc dhry_nr.Experiment.perf)
           (Perf.ipc dhry_r.Experiment.perf));
    report =
      Text.table
        ~title:
          "VI-B: speculative-history management (none vs repair-only vs repair+replay)"
        ~header:
          [ "workload"; "IPC none"; "IPC repair"; "IPC replay"; "misp none"; "misp repair";
            "misp replay"; "replays" ]
        ~rows ();
  }

(* --- VI-C: short-forward-branch predication ------------------------------------ *)

let short_forward_branch ?insns () =
  let job sfb =
    let config = { Config.default with Config.sfb_optimization = sfb } in
    Experiment.cell (Experiment.job ?insns ~config Designs.tage_l (coremark ()))
  in
  let off, on =
    Experiment.run_jobs ~label:"ablation:VI-C" (Experiment.pair (job false) (job true))
  in
  let acc r = 100.0 *. Perf.branch_accuracy r.Experiment.perf in
  let score r = Cobra_workloads.Coremark.score_per_mhz ~ipc:(Perf.ipc r.Experiment.perf) in
  {
    id = "VI-C";
    paper_claim = claim "VI-C";
    measured =
      Printf.sprintf "accuracy %.1f%% -> %.1f%%; CoreMark-like %.2f -> %.2f per MHz" (acc off)
        (acc on) (score off) (score on);
    report =
      Text.table ~title:"VI-C: short-forward-branch (hammock) predication"
        ~header:[ "mode"; "IPC"; "branches"; "mispredicts"; "accuracy%%"; "score/MHz" ]
        ~rows:
          (List.map
             (fun (name, r) ->
               [
                 name;
                 Text.float_cell (Perf.ipc r.Experiment.perf);
                 string_of_int r.Experiment.perf.Perf.branches;
                 string_of_int r.Experiment.perf.Perf.mispredicts;
                 Text.float_cell ~decimals:2 (acc r);
                 Text.float_cell (score r);
               ])
             [ ("baseline", off); ("SFB optimisation", on) ])
        ();
  }

(* --- Section I: serialized fetch ------------------------------------------------ *)

let serialized_fetch ?insns () =
  let job serialize =
    let config = { Config.default with Config.serialize_fetch = serialize } in
    Experiment.cell (Experiment.job ?insns ~config Designs.tage_l (dhrystone ()))
  in
  let wide, serial =
    Experiment.run_jobs ~label:"ablation:I-intro" (Experiment.pair (job false) (job true))
  in
  let ipc_w = Perf.ipc wide.Experiment.perf and ipc_s = Perf.ipc serial.Experiment.perf in
  {
    id = "I-intro";
    paper_claim = claim "I-intro";
    measured = Printf.sprintf "Dhrystone IPC %.3f -> %.3f (%+.1f%%)" ipc_w ipc_s
        (pct ~baseline:ipc_w ipc_s);
    report =
      Text.table ~title:"Section I: serializing fetch behind branches (Dhrystone)"
        ~header:[ "fetch"; "IPC"; "cycles"; "packets" ]
        ~rows:
          (List.map
             (fun (name, r) ->
               [
                 name;
                 Text.float_cell (Perf.ipc r.Experiment.perf);
                 string_of_int r.Experiment.perf.Perf.cycles;
                 string_of_int r.Experiment.perf.Perf.fetch_packets;
               ])
             [ ("4-wide superscalar", wide); ("serialized at branches", serial) ])
        ();
  }
