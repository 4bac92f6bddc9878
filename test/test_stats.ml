(* Tests for the Cobra_stats subsystem: the attribution invariant across
   every design, the JSON and CSV emitters (read back through [Json] and
   against a golden string), bounded interval series, export gating via
   COBRA_STATS, and the Progress rate/ETA guards on degenerate inputs. *)

module Stats = Cobra_stats
module Json = Cobra_stats.Json
module Report = Cobra_stats.Report
module Interval = Cobra_stats.Interval
module Progress = Cobra_runner.Progress
module Perf = Cobra_uarch.Perf
open Cobra_eval

let check = Alcotest.check

let contains haystack needle =
  let n = String.length needle and m = String.length haystack in
  let rec go i = i + n <= m && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let with_env = Cobra_util.Env.with_set

let counter = ref 0

let fresh_dir () =
  incr counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "cobra_stats_test.%d.%d" (Unix.getpid ()) !counter)
  in
  (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  d

let run_design ?(workload = "gcc") ?(insns = 8_000) name =
  Experiment.run_with_stats ~insns (Designs.find name)
    (Cobra_workloads.Suite.find workload)

(* --- the acceptance invariant ------------------------------------------------ *)

let test_attribution_sums_exactly () =
  List.iter
    (fun (d : Designs.t) ->
      let r, report = run_design d.Designs.name in
      let total = r.Experiment.perf.Perf.mispredicts in
      check Alcotest.int
        (d.Designs.name ^ ": report total equals Perf.mispredicts")
        total report.Report.total_mispredicts;
      check Alcotest.int
        (d.Designs.name ^ ": bucket sum equals total mispredicts")
        total (Report.attributed report);
      (* per-component caused counts are the component part of the buckets *)
      (* buckets are sparse: a component missing from the list caused 0 *)
      List.iter
        (fun (row : Report.component_row) ->
          let b =
            Option.value
              (List.assoc_opt row.Report.cr_name report.Report.buckets)
              ~default:0
          in
          check Alcotest.int
            (d.Designs.name ^ ": bucket matches caused for " ^ row.Report.cr_name)
            row.Report.cr_caused b)
        report.Report.components;
      check Alcotest.bool (d.Designs.name ^ ": design recorded") true
        (String.equal report.Report.design d.Designs.name))
    Designs.all

let test_event_counters_are_consistent () =
  let r, report = run_design "Tourney" in
  let p = r.Experiment.perf in
  List.iter
    (fun (row : Report.component_row) ->
      let ev k = row.Report.cr_events.(Cobra.Component.event_kind_index k) in
      let name = row.Report.cr_name in
      check Alcotest.bool (name ^ ": fired <= predicted") true
        (ev Cobra.Component.Fire <= ev Cobra.Component.Predict);
      check Alcotest.int (name ^ ": one mispredict event per Perf.mispredict")
        p.Perf.mispredicts (ev Cobra.Component.Mispredict);
      check Alcotest.bool (name ^ ": commits <= fires") true
        (ev Cobra.Component.Update <= ev Cobra.Component.Fire))
    report.Report.components;
  (* the selector's arbitration tallies cover only resolved conditionals *)
  List.iter
    (fun (arb : Report.arb_row) ->
      List.iter
        (fun (s : Report.arb_sub_row) ->
          check Alcotest.int
            (s.Report.as_name ^ ": wins split into right + wrong")
            s.Report.as_won
            (s.Report.as_won_right + s.Report.as_won_wrong))
        arb.Report.ar_subs)
    report.Report.arbitrations

(* Exact pin of one collector report over the uarch core — several pending
   packets, repairs and squashes — recorded before the collector read the
   pipeline's own packet records instead of its own copies. *)
let test_tourney_report_pinned () =
  let _, r = run_design "Tourney" ~insns:6_000 in
  check Alcotest.int "total mispredicts" 464 r.Report.total_mispredicts;
  check Alcotest.(list (pair string int)) "buckets" [ ("TOURNEY", 464) ] r.Report.buckets;
  check Alcotest.(list (pair string int)) "saved"
    [ ("TOURNEY", 11); ("GBIM", 0); ("BTB", 0); ("LBIM", 0) ]
    (List.map (fun (c : Report.component_row) -> (c.Report.cr_name, c.Report.cr_saved))
       r.Report.components);
  check Alcotest.int "squashed packets" 3519 r.Report.squashed_packets;
  check
    Alcotest.(list (pair string (list int)))
    "arbitration tallies (won, won_right, won_wrong, right, wrong)"
    [
      ("TOURNEY/GBIM_2 > BTB_2", [ 1131; 683; 448; 699; 459 ]);
      ("TOURNEY/LBIM_2", [ 27; 11; 16; 705; 453 ]);
    ]
    (List.concat_map
       (fun (a : Report.arb_row) ->
         List.map
           (fun (s : Report.arb_sub_row) ->
             ( a.Report.ar_selector ^ "/" ^ s.Report.as_name,
               [ s.as_won; s.as_won_right; s.as_won_wrong; s.as_right; s.as_wrong ] ))
           a.Report.ar_subs)
       r.Report.arbitrations);
  check
    Alcotest.(list (list int))
    "top-5 branches (pc, execs, taken, transitions, mispredicts)"
    [
      [ 0x1118; 48; 27; 25; 28 ];
      [ 0x1130; 48; 23; 23; 26 ];
      [ 0x1160; 48; 25; 28; 25 ];
      [ 0x1058; 49; 25; 27; 24 ];
      [ 0x10e8; 48; 25; 28; 24 ];
    ]
    (List.filteri
       (fun i _ -> i < 5)
       (List.map
          (fun (b : Report.branch_row) ->
            [ b.Report.br_pc; b.br_execs; b.br_taken; b.br_transitions; b.br_mispredicts ])
          r.Report.branches))

(* --- round-trips -------------------------------------------------------------- *)

(* The integer members of a JSON object, in order. *)
let int_fields = function
  | Some (Json.Obj fields) ->
    List.map (fun (k, v) -> (k, Option.value (Json.to_int v) ~default:min_int)) fields
  | _ -> []

let test_json_roundtrip () =
  let _, report = run_design "Tourney" ~insns:6_000 in
  match Json.of_string (Json.to_string (Report.to_json report)) with
  | Error e -> Alcotest.failf "emitted JSON does not parse: %s" e
  | Ok j ->
    let str k v = Json.str_member k v ~default:"<missing>" in
    let int k v = Json.int_member k v ~default:min_int in
    let ints = Alcotest.(list (pair string int)) in
    check Alcotest.string "design" report.Report.design (str "design" j);
    check Alcotest.string "workload" report.Report.workload (str "workload" j);
    check Alcotest.int "total_mispredicts" report.Report.total_mispredicts
      (int "total_mispredicts" j);
    check Alcotest.int "squashed_packets" report.Report.squashed_packets
      (int "squashed_packets" j);
    check ints "attribution" report.Report.buckets (int_fields (Json.member "attribution" j));
    check ints "perf" report.Report.perf (int_fields (Json.member "perf" j));
    check
      Alcotest.(list (pair string (list int)))
      "components"
      (List.map
         (fun (r : Report.component_row) ->
           ( r.Report.cr_name,
             Array.to_list r.Report.cr_events @ [ r.Report.cr_caused; r.Report.cr_saved ] ))
         report.Report.components)
      (List.map
         (fun c ->
           ( str "name" c,
             List.map
               (fun k -> int k c)
               [ "predict"; "fire"; "mispredict"; "repair"; "update"; "caused"; "saved" ] ))
         (Json.list_member "components" j));
    check
      Alcotest.(list (pair string (list int)))
      "arbitration"
      (List.concat_map
         (fun (a : Report.arb_row) ->
           List.map
             (fun (s : Report.arb_sub_row) ->
               ( a.Report.ar_selector ^ "/" ^ s.Report.as_name,
                 [ s.as_won; s.as_won_right; s.as_won_wrong; s.as_right; s.as_wrong ] ))
             a.Report.ar_subs)
         report.Report.arbitrations)
      (List.concat_map
         (fun a ->
           List.map
             (fun s ->
               ( str "selector" a ^ "/" ^ str "name" s,
                 List.map (fun k -> int k s)
                   [ "won"; "won_right"; "won_wrong"; "right"; "wrong" ] ))
             (Json.list_member "subs" a))
         (Json.list_member "arbitration" j));
    check
      Alcotest.(list (list int))
      "branches"
      (List.map
         (fun (b : Report.branch_row) ->
           [ b.Report.br_pc; b.br_execs; b.br_taken; b.br_transitions; b.br_mispredicts ])
         report.Report.branches)
      (List.map
         (fun b ->
           List.map (fun k -> int k b) [ "pc"; "execs"; "taken"; "transitions"; "mispredicts" ])
         (Json.list_member "branches" j));
    let intervals = Option.value (Json.member "intervals" j) ~default:Json.Null in
    check Alcotest.int "interval width" report.Report.interval_width (int "width" intervals);
    check
      Alcotest.(list (list int))
      "interval points"
      (List.map
         (fun (p : Interval.point) ->
           [ p.Interval.p_start; p.p_insns; p.p_cycles; p.p_mispredicts ])
         report.Report.intervals)
      (List.map
         (fun p -> List.map (fun k -> int k p) [ "start"; "insns"; "cycles"; "mispredicts" ])
         (Json.list_member "points" intervals))

(* A hand-built report whose names need quoting: a comma in a component
   and the design, a quote in the workload and an arbitration sub. *)
let test_csv_roundtrip () =
  let report =
    {
      Report.design = "d,1";
      workload = "w\"q";
      total_mispredicts = 3;
      buckets = [ ("A,B", 2); ("default", 1) ];
      components =
        [ { Report.cr_name = "A,B"; cr_events = [| 1; 2; 3; 4; 5 |]; cr_caused = 2; cr_saved = 1 } ];
      arbitrations =
        [
          {
            Report.ar_selector = "SEL";
            ar_subs =
              [
                {
                  Report.as_name = "x\"y";
                  as_won = 1;
                  as_won_right = 1;
                  as_won_wrong = 0;
                  as_right = 2;
                  as_wrong = 3;
                };
              ];
          };
        ];
      branches =
        [ { Report.br_pc = 0x40; br_execs = 4; br_taken = 3; br_transitions = 2; br_mispredicts = 1 } ];
      intervals = [ { Interval.p_start = 0; p_insns = 10; p_cycles = 20; p_mispredicts = 1 } ];
      interval_width = 10;
      squashed_packets = 7;
      perf = [ ("cycles", 20) ];
    }
  in
  check Alcotest.string "CSV rows, quoted where needed"
    (String.concat "\n"
       [
         "section,name,field,value";
         "meta,design,,\"d,1\"";
         "meta,workload,,\"w\"\"q\"";
         "meta,total_mispredicts,,3";
         "meta,squashed_packets,,7";
         "meta,interval_width,,10";
         "attribution,\"A,B\",,2";
         "attribution,default,,1";
         "component,\"A,B\",predict,1";
         "component,\"A,B\",fire,2";
         "component,\"A,B\",mispredict,3";
         "component,\"A,B\",repair,4";
         "component,\"A,B\",update,5";
         "component,\"A,B\",caused,2";
         "component,\"A,B\",saved,1";
         "arb,SEL,\"x\"\"y.won\",1";
         "arb,SEL,\"x\"\"y.won_right\",1";
         "arb,SEL,\"x\"\"y.won_wrong\",0";
         "arb,SEL,\"x\"\"y.right\",2";
         "arb,SEL,\"x\"\"y.wrong\",3";
         "branch,0x40,execs,4";
         "branch,0x40,taken,3";
         "branch,0x40,transitions,2";
         "branch,0x40,mispredicts,1";
         "interval,0,start,0";
         "interval,0,insns,10";
         "interval,0,cycles,20";
         "interval,0,mispredicts,1";
         "perf,cycles,,20";
         "";
       ])
    (Report.to_csv report)

let test_json_parser_basics () =
  let ok s = Json.of_string s |> Result.get_ok in
  check Alcotest.int "nested int member" 42
    (let j = ok {|{"a": {"b": [1, 42]}}|} in
     match Json.member "a" j with
     | Some inner -> (
       match Json.list_member "b" inner with [ _; Json.Int n ] -> n | _ -> -1)
     | None -> -1);
  check Alcotest.(option string) "string escapes" (Some "a\"b\\c\nd")
    (Json.to_str (ok {|"a\"b\\c\nd"|}));
  check Alcotest.bool "negative and float numbers" true
    (match Json.to_list (ok "[-3, 2.5, 1e2]") with
    | Some [ Json.Int -3; Json.Float 2.5; Json.Float 100.0 ] -> true
    | Some _ | None -> false);
  check Alcotest.bool "garbage is an error" true
    (Result.is_error (Json.of_string "{nope"));
  check Alcotest.bool "trailing garbage is an error" true
    (Result.is_error (Json.of_string "1 2"))

(* With --json, the report is stdout's one document: a consumer pipes it
   straight into a JSON parser. The summary line goes to stderr. *)
let test_replay_json_stdout () =
  let cobra = Filename.concat ".." (Filename.concat "bin" "cobra_cli.exe") in
  let ((out_ic, _, err_ic) as p) =
    Unix.open_process_args_full cobra
      [| cobra; "replay"; "-d"; "B2"; "--stats"; "--json"; "fixtures/h2p_mix_256.trace" |]
      (Unix.environment ())
  in
  let out = In_channel.input_all out_ic and err = In_channel.input_all err_ic in
  check Alcotest.bool "exit 0" true (Unix.close_process_full p = Unix.WEXITED 0);
  check Alcotest.bool "summary line on stderr" true
    (String.starts_with ~prefix:"B2 on fixtures/h2p_mix_256.trace: 256 branches" err);
  match Json.of_string out with
  | Ok j -> check Alcotest.string "the report" "B2" (Json.str_member "design" j ~default:"")
  | Error e -> Alcotest.failf "stdout is not one JSON document (%s):\n%s" e out

(* --- bounded interval series -------------------------------------------------- *)

let test_interval_bounded_and_lossless () =
  let t = Interval.create ~capacity:8 ~width:100 () in
  let total = 100_000 in
  let step = 37 in
  let i = ref 0 in
  while !i < total do
    i := min total (!i + step);
    Interval.sample t ~insns:!i ~cycles:(2 * !i) ~mispredicts:(!i / 50)
  done;
  Interval.flush t ~insns:total ~cycles:(2 * total) ~mispredicts:(total / 50);
  let points = Interval.points t in
  check Alcotest.bool "capacity bound holds" true (List.length points <= 8);
  check Alcotest.bool "width grew by doubling" true
    (let w = Interval.width t in
     w >= 100 && w mod 100 = 0
     && (let rec pow2 k = k = 1 || (k mod 2 = 0 && pow2 (k / 2)) in
         pow2 (w / 100)));
  check Alcotest.int "no instructions lost to coalescing" total
    (List.fold_left (fun acc (p : Interval.point) -> acc + p.Interval.p_insns) 0 points);
  check Alcotest.int "no mispredicts lost to coalescing" (total / 50)
    (List.fold_left
       (fun acc (p : Interval.point) -> acc + p.Interval.p_mispredicts)
       0 points);
  (* buckets tile the run: each starts where the previous ended *)
  ignore
    (List.fold_left
       (fun expected (p : Interval.point) ->
         check Alcotest.int "contiguous buckets" expected p.Interval.p_start;
         expected + p.Interval.p_insns)
       0 points);
  let empty = { Interval.p_start = 0; p_insns = 0; p_cycles = 0; p_mispredicts = 0 } in
  check (Alcotest.float 0.0) "ipc of empty bucket is 0, not nan" 0.0 (Interval.ipc empty);
  check (Alcotest.float 0.0) "mpki of empty bucket is 0, not nan" 0.0 (Interval.mpki empty)

(* --- export + gating ---------------------------------------------------------- *)

let test_stats_env_gating () =
  let d = fresh_dir () in
  with_env [ ("COBRA_STATS", "0"); ("COBRA_STATS_DIR", d) ] (fun () ->
      ignore
        (Experiment.run ~insns:2_000 (Designs.find "B2")
           (Cobra_workloads.Suite.find "loop7"));
      check Alcotest.(list string) "disabled: no report files" []
        (Array.to_list (Sys.readdir d)));
  with_env [ ("COBRA_STATS", "1"); ("COBRA_STATS_DIR", d) ] (fun () ->
      ignore
        (Experiment.run ~insns:2_000 (Designs.find "B2")
           (Cobra_workloads.Suite.find "loop7"));
      let files = List.sort compare (Array.to_list (Sys.readdir d)) in
      check Alcotest.(list string) "enabled: JSON + CSV exported"
        [ "B2__loop7.csv"; "B2__loop7.json" ]
        files;
      (* and the exported JSON carries the design and an attributed total *)
      let text =
        In_channel.with_open_text (Filename.concat d "B2__loop7.json")
          In_channel.input_all
      in
      match Json.of_string (String.trim text) with
      | Error e -> Alcotest.failf "exported JSON invalid: %s" e
      | Ok j ->
        check Alcotest.string "exported design" "B2"
          (Json.str_member "design" j ~default:"<missing>");
        check Alcotest.int "exported report is attributed"
          (Json.int_member "total_mispredicts" j ~default:(-1))
          (List.fold_left ( + ) 0 (List.map snd (int_fields (Json.member "attribution" j)))))

(* Jobs that differ only in configuration once all exported as
   <design>__<workload>, one report overwriting the other with the survivor
   left to scheduling. [sweep ras] runs TAGE-L on two workloads with and
   without RAS repair: four reports per format, named alike at any job
   count. *)
let test_export_named_per_job () =
  let exported jobs =
    let d = fresh_dir () in
    with_env
      [
        ("COBRA_STATS", "1");
        ("COBRA_STATS_DIR", d);
        ("COBRA_CACHE", "0");
        ("COBRA_JOBS", string_of_int jobs);
        ("COBRA_PROGRESS", "0");
      ]
      (fun () ->
        ignore
          ((List.find (fun (s : Sweeps.t) -> s.Sweeps.name = "ras") Sweeps.all).Sweeps.run
             ~insns:2_000 ()));
    List.sort compare (Array.to_list (Sys.readdir d))
  in
  let serial = exported 1 and parallel = exported 2 in
  let count ext files = List.length (List.filter (fun f -> Filename.check_suffix f ext) files) in
  List.iter
    (fun (label, files) ->
      check Alcotest.int (label ^ ": JSON reports") 4 (count ".json" files);
      check Alcotest.int (label ^ ": CSV reports") 4 (count ".csv" files))
    [ ("-j 1", serial); ("-j 2", parallel) ];
  check Alcotest.(list string) "the same names at -j 1 and -j 2" serial parallel

(* A run answered from the result cache used to skip its export: with the
   cache on, a second [sweep ras] wrote no report at all. Both passes must
   write the same eight files. *)
let test_export_on_warm_cache () =
  let cache = fresh_dir () in
  let exported () =
    let d = fresh_dir () in
    with_env
      [
        ("COBRA_STATS", "1");
        ("COBRA_STATS_DIR", d);
        ("COBRA_CACHE", "1");
        ("COBRA_CACHE_DIR", cache);
        ("COBRA_JOBS", "1");
        ("COBRA_PROGRESS", "0");
      ]
      (fun () ->
        ignore
          ((List.find (fun (s : Sweeps.t) -> s.Sweeps.name = "ras") Sweeps.all).Sweeps.run
             ~insns:2_000 ()));
    List.sort compare (Array.to_list (Sys.readdir d))
  in
  let cold = exported () in
  check Alcotest.int "cold cache: JSON + CSV per job" 8 (List.length cold);
  check Alcotest.(list string) "warm cache: the same reports" cold (exported ())

let test_sink_publishes () =
  let seen = ref [] in
  let prev = Stats.Sink.current () in
  Stats.Sink.set (Some (fun r -> seen := r.Report.design :: !seen));
  Fun.protect
    ~finally:(fun () -> Stats.Sink.set prev)
    (fun () ->
      with_env [ ("COBRA_STATS", "1"); ("COBRA_STATS_DIR", fresh_dir ()) ] (fun () ->
          ignore
            (Experiment.run ~insns:1_000 (Designs.find "B2")
               (Cobra_workloads.Suite.find "loop7"))));
  check Alcotest.(list string) "report published to the sink" [ "B2" ] !seen

let test_observer_off_by_default () =
  let pl = Designs.pipeline (Designs.find "Tourney") in
  check Alcotest.bool "fresh pipeline is unobserved" false (Cobra.Pipeline.observed pl);
  let c = Stats.Collector.create pl in
  check Alcotest.bool "collector attaches" true (Cobra.Pipeline.observed pl);
  Stats.Collector.detach c;
  check Alcotest.bool "detach removes the observer" false (Cobra.Pipeline.observed pl)

(* --- Progress rate/ETA guards -------------------------------------------------- *)

let finite_line line =
  (not (contains line "nan")) && not (contains line "inf")

let test_progress_degenerate_inputs () =
  (* zero-job grid: finish immediately, every figure defined *)
  let events = Filename.concat (fresh_dir ()) "events.jsonl" in
  let p = Progress.create ~label:"empty" ~events_path:events ~live:false ~total:0 () in
  check Alcotest.bool "zero-job status line is finite" true
    (finite_line (Progress.status_line p));
  Progress.finish p;
  let lines = In_channel.with_open_text events In_channel.input_lines in
  let summary = List.find (fun l -> contains l "\"event\": \"summary\"") lines in
  check Alcotest.bool "zero-job summary is finite" true (finite_line summary);
  (match Json.of_string summary with
  | Error e -> Alcotest.failf "summary line is not valid JSON: %s" e
  | Ok j ->
    check Alcotest.int "total 0" 0 (Json.int_member "total" j ~default:(-1));
    check (Alcotest.float 0.0) "rate 0.0, not nan" 0.0
      (match Json.member "rate" j with
      | Some v -> Option.value (Json.to_float v) ~default:Float.nan
      | None -> Float.nan));
  (* first event at elapsed ~ 0: rate and ETA must stay finite *)
  let q = Progress.create ~label:"first" ~live:false ~total:5 () in
  Progress.emit q (Progress.Finish { job = 0; ok = true; cached = false; elapsed = 0.0 });
  let line = Progress.status_line q in
  check Alcotest.bool "first-event status line is finite" true (finite_line line);
  check Alcotest.int "one job done" 1 (Progress.jobs_done q);
  Progress.finish q;
  (* done > total (defensive): ETA suppressed rather than negative *)
  let r = Progress.create ~label:"over" ~live:false ~total:1 () in
  Progress.emit r (Progress.Finish { job = 0; ok = true; cached = false; elapsed = 0.0 });
  Progress.emit r (Progress.Finish { job = 1; ok = true; cached = false; elapsed = 0.0 });
  check Alcotest.bool "overshoot stays finite and ETA-free" true
    (let l = Progress.status_line r in
     finite_line l && not (contains l "ETA -"));
  Progress.finish r

let test_progress_stats_event_passthrough () =
  let events = Filename.concat (fresh_dir ()) "events.jsonl" in
  (* every string field must survive JSON quoting *)
  let nasty = "q\"b\\n\nc\001" in
  let p = Progress.create ~label:nasty ~events_path:events ~live:false ~total:1 () in
  Progress.emit p
    (Progress.Stats { design = "B2"; workload = "loop7"; summary = "17 mispredicts" });
  check Alcotest.int "stats events do not advance the counters" 0 (Progress.jobs_done p);
  Progress.emit p (Progress.Start { job = 0; key = nasty });
  Progress.emit p (Progress.Retry { job = 0; attempt = 1; message = nasty });
  Progress.emit p (Progress.Store_error { job = 0; key = nasty; message = nasty });
  Progress.emit p (Progress.Finish { job = 0; ok = true; cached = false; elapsed = 0.5 });
  Progress.finish p;
  let lines = In_channel.with_open_text events In_channel.input_lines in
  check Alcotest.int "stats line mirrored to the events file" 1
    (List.length
       (List.filter
          (fun l -> contains l "\"event\": \"stats\"" && contains l "\"design\": \"B2\"")
          lines));
  let parsed =
    List.map
      (fun l ->
        match Json.of_string l with
        | Ok j -> j
        | Error e -> Alcotest.failf "events line is not valid JSON (%s): %s" e l)
      lines
  in
  check
    Alcotest.(list string)
    "one line per event, in order"
    [ "stats"; "start"; "retry"; "store_error"; "finish"; "summary" ]
    (List.map (fun j -> Json.str_member "event" j ~default:"") parsed);
  List.iter
    (fun j ->
      let event = Json.str_member "event" j ~default:"" in
      check Alcotest.string (event ^ ": label round-trips") nasty
        (Json.str_member "label" j ~default:"");
      List.iter
        (fun field ->
          match Json.member field j with
          | Some v -> check Alcotest.(option string) (event ^ ": " ^ field) (Some nasty) (Json.to_str v)
          | None -> ())
        [ "key"; "error" ])
    parsed

let () =
  Alcotest.run "stats"
    [
      ( "attribution",
        [
          Alcotest.test_case "buckets sum exactly, every design" `Quick
            test_attribution_sums_exactly;
          Alcotest.test_case "event counters consistent" `Quick
            test_event_counters_are_consistent;
          Alcotest.test_case "Tourney report pinned" `Quick test_tourney_report_pinned;
        ] );
      ( "round-trips",
        [
          Alcotest.test_case "JSON" `Quick test_json_roundtrip;
          Alcotest.test_case "CSV" `Quick test_csv_roundtrip;
          Alcotest.test_case "JSON parser basics" `Quick test_json_parser_basics;
          Alcotest.test_case "replay --stats --json stdout" `Quick test_replay_json_stdout;
        ] );
      ( "intervals",
        [ Alcotest.test_case "bounded and lossless" `Quick test_interval_bounded_and_lossless ]
      );
      ( "export",
        [
          Alcotest.test_case "COBRA_STATS gating" `Quick test_stats_env_gating;
          Alcotest.test_case "one report per job" `Quick test_export_named_per_job;
          Alcotest.test_case "warm cache still exports" `Quick test_export_on_warm_cache;
          Alcotest.test_case "sink publication" `Quick test_sink_publishes;
          Alcotest.test_case "observer lifecycle" `Quick test_observer_off_by_default;
        ] );
      ( "progress",
        [
          Alcotest.test_case "degenerate rate/ETA" `Quick test_progress_degenerate_inputs;
          Alcotest.test_case "stats passthrough" `Quick
            test_progress_stats_event_passthrough;
        ] );
    ]
