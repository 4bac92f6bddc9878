(* Tests for the Cobra_runner subsystem: pool determinism, exception
   isolation and retry accounting, the on-disk result cache (round-trip,
   corruption recovery, digest sensitivity) and warm-run cache hits. *)

open Cobra_eval
module Runner = Cobra_runner
module Pool = Cobra_runner.Pool
module Cache = Cobra_runner.Cache
module Progress = Cobra_runner.Progress
module Perf = Cobra_uarch.Perf

let check = Alcotest.check

let contains haystack needle =
  let n = String.length needle and m = String.length haystack in
  let rec go i = i + n <= m && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

(* Every test gets a private cache directory and a quiet progress line, and
   restores the environment afterwards so tests stay order-independent. *)
let with_env = Cobra_util.Env.with_set

let counter = ref 0

let fresh_dir () =
  incr counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "cobra_runner_test.%d.%d" (Unix.getpid ()) !counter)
  in
  (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  d

let with_cache_dir f =
  let d = fresh_dir () in
  with_env [ ("COBRA_CACHE_DIR", d); ("COBRA_CACHE", "1"); ("COBRA_PROGRESS", "0") ]
    (fun () -> f d)

let no_cache f =
  with_env [ ("COBRA_CACHE", "0"); ("COBRA_PROGRESS", "0") ] f

let sample_perf () =
  let p = Perf.create () in
  p.Perf.cycles <- 12345;
  p.Perf.instructions <- 6789;
  p.Perf.branches <- 1111;
  p.Perf.cond_branches <- 999;
  p.Perf.mispredicts <- 88;
  p.Perf.cond_mispredicts <- 77;
  p.Perf.misfetches <- 66;
  p.Perf.history_divergences <- 55;
  p.Perf.replays <- 44;
  p.Perf.flushes <- 33;
  p.Perf.fetch_packets <- 22;
  p.Perf.wrong_path_packets <- 11;
  p.Perf.icache_stall_cycles <- 9;
  p.Perf.frontend_stall_cycles <- 5;
  p

let store_ok k p =
  match Cache.store k p with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("cache store failed: " ^ e)

let perf_fields (p : Perf.t) =
  [
    p.Perf.cycles; p.Perf.instructions; p.Perf.branches; p.Perf.cond_branches;
    p.Perf.mispredicts; p.Perf.cond_mispredicts; p.Perf.misfetches;
    p.Perf.history_divergences; p.Perf.replays; p.Perf.flushes; p.Perf.fetch_packets;
    p.Perf.wrong_path_packets; p.Perf.icache_stall_cycles; p.Perf.frontend_stall_cycles;
  ]

(* --- pool ----------------------------------------------------------------------- *)

let test_pool_order_and_parallelism () =
  (* results come back in submission order even with many workers *)
  let thunks = List.init 20 (fun i () -> i * i) in
  let serial = Pool.map ~jobs:1 thunks in
  let parallel = Pool.map ~jobs:8 thunks in
  check Alcotest.(list int) "submission order" (List.init 20 (fun i -> i * i))
    (List.map Result.get_ok parallel);
  check Alcotest.bool "serial = parallel" true (serial = parallel)

let test_pool_matrix_determinism () =
  (* the acceptance grid: a 3x3 matrix gives the same result list in
     parallel as serially *)
  no_cache (fun () ->
      let ws = List.map Cobra_workloads.Suite.find [ "loop7"; "calls"; "pattern-ttn" ] in
      let serial =
        with_env [ ("COBRA_JOBS", "1") ] (fun () ->
            Experiment.run_matrix ~insns:2_000 Designs.all ws)
      in
      let parallel =
        with_env [ ("COBRA_JOBS", "4") ] (fun () ->
            Experiment.run_matrix ~insns:2_000 Designs.all ws)
      in
      check Alcotest.int "grid size" 9 (List.length parallel);
      List.iter2
        (fun (a : Experiment.result) (b : Experiment.result) ->
          check Alcotest.string "design order" a.Experiment.design b.Experiment.design;
          check Alcotest.string "workload order" a.Experiment.workload b.Experiment.workload;
          check Alcotest.(list int) "identical counters"
            (perf_fields a.Experiment.perf)
            (perf_fields b.Experiment.perf))
        serial parallel)

let test_pool_exception_isolation () =
  let attempts_of_bad = Atomic.make 0 in
  let thunks =
    [
      (fun () -> 10);
      (fun () ->
        Atomic.incr attempts_of_bad;
        failwith "deliberate failure");
      (fun () -> 30);
    ]
  in
  let results = Pool.map ~jobs:3 ~attempts:3 thunks in
  (match results with
  | [ Ok a; Error e; Ok c ] ->
    check Alcotest.int "sibling before failure survives" 10 a;
    check Alcotest.int "sibling after failure survives" 30 c;
    check Alcotest.int "failed job index" 1 e.Pool.job;
    check Alcotest.int "retried up to the bound" 3 e.Pool.attempts;
    check Alcotest.bool "message names the exception" true
      (contains e.Pool.message "deliberate failure")
  | _ -> Alcotest.fail "expected [Ok; Error; Ok]");
  check Alcotest.int "thunk invoked once per attempt" 3 (Atomic.get attempts_of_bad)

let test_pool_retry_succeeds () =
  let tries = Atomic.make 0 in
  let flaky () = if Atomic.fetch_and_add tries 1 < 2 then failwith "flaky" else 42 in
  match Pool.map ~jobs:1 ~attempts:3 [ flaky ] with
  | [ Ok v ] ->
    check Alcotest.int "eventual success" 42 v;
    check Alcotest.int "took three attempts" 3 (Atomic.get tries)
  | _ -> Alcotest.fail "expected [Ok 42]"

(* --- cache ---------------------------------------------------------------------- *)

let test_cache_roundtrip () =
  with_cache_dir (fun _ ->
      let k = Cache.key [ "roundtrip"; "insns:1000" ] in
      check Alcotest.bool "initially a miss" true (Cache.load k = None);
      let p = sample_perf () in
      store_ok k p;
      match Cache.load k with
      | Some q -> check Alcotest.(list int) "all fields survive" (perf_fields p) (perf_fields q)
      | None -> Alcotest.fail "expected a hit after store")

let test_cache_corruption_recovery () =
  with_cache_dir (fun _ ->
      let k = Cache.key [ "corrupt"; "insns:1000" ] in
      let p = sample_perf () in
      store_ok k p;
      (* truncate the entry mid-file *)
      let text = In_channel.with_open_bin (Cache.path k) In_channel.input_all in
      Out_channel.with_open_bin (Cache.path k) (fun oc ->
          Out_channel.output_string oc (String.sub text 0 (String.length text / 2)));
      check Alcotest.bool "truncated entry is a miss" true (Cache.load k = None);
      (* pure garbage *)
      Out_channel.with_open_bin (Cache.path k) (fun oc ->
          Out_channel.output_string oc "not a cache entry\x00\xff garbage");
      check Alcotest.bool "garbled entry is a miss" true (Cache.load k = None);
      (* a flipped counter breaks the checksum *)
      (match String.index_opt text '5' with
      | Some i ->
        let tampered = Bytes.of_string text in
        Bytes.set tampered i '7';
        Out_channel.with_open_bin (Cache.path k) (fun oc ->
            Out_channel.output_bytes oc tampered);
        check Alcotest.bool "checksum mismatch is a miss" true (Cache.load k = None)
      | None -> Alcotest.fail "expected a digit to tamper with");
      (* and the slot can be rewritten afterwards *)
      store_ok k p;
      check Alcotest.bool "rewritten entry hits again" true (Cache.load k <> None))

let test_cache_digest_sensitivity () =
  let base = [ "topology:T"; "workload:gcc"; "config:C"; "pipeline:P"; "insns:1000" ] in
  let k = Cache.key base in
  let variants =
    [
      [ "topology:T'"; "workload:gcc"; "config:C"; "pipeline:P"; "insns:1000" ];
      [ "topology:T"; "workload:mcf"; "config:C"; "pipeline:P"; "insns:1000" ];
      [ "topology:T"; "workload:gcc"; "config:C'"; "pipeline:P"; "insns:1000" ];
      [ "topology:T"; "workload:gcc"; "config:C"; "pipeline:P'"; "insns:1000" ];
      [ "topology:T"; "workload:gcc"; "config:C"; "pipeline:P"; "insns:2000" ];
    ]
  in
  List.iter
    (fun parts ->
      check Alcotest.bool "any changed part changes the key" false
        (String.equal (Cache.hex k) (Cache.hex (Cache.key parts))))
    variants;
  check Alcotest.string "same parts, same key" (Cache.hex k) (Cache.hex (Cache.key base))

let test_store_failure_is_reported () =
  (* Point the cache "directory" at a regular file: every store must fail,
     and the failure must come back as [Error], not vanish. *)
  let file = Filename.temp_file "cobra_not_a_dir" ".txt" in
  Fun.protect ~finally:(fun () -> Sys.remove file) (fun () ->
      with_env [ ("COBRA_CACHE_DIR", file); ("COBRA_CACHE", "1"); ("COBRA_PROGRESS", "0") ]
        (fun () ->
          let k = Cache.key [ "store-failure" ] in
          match Cache.store k (sample_perf ()) with
          | Ok () -> Alcotest.fail "store into a non-directory reported Ok"
          | Error msg ->
            check Alcotest.bool "error message is non-empty" true (msg <> "")))

let test_store_failure_reaches_telemetry () =
  let file = Filename.temp_file "cobra_not_a_dir" ".txt" in
  Fun.protect ~finally:(fun () -> Sys.remove file) (fun () ->
      with_env [ ("COBRA_CACHE_DIR", file); ("COBRA_CACHE", "1"); ("COBRA_PROGRESS", "0") ]
        (fun () ->
          let events = Filename.concat (fresh_dir ()) "events.jsonl" in
          let progress = Progress.create ~label:"t" ~events_path:events ~live:false ~total:1 () in
          let jobs = [ { Runner.key = [ "telemetry-store" ]; run = (fun () -> (sample_perf (), None)) } ] in
          let results = Runner.run_perfs ~progress jobs in
          Progress.finish progress;
          (* the job itself still succeeds: a dead cache is not a dead run *)
          check Alcotest.int "job succeeded" 1
            (List.length (List.filter Result.is_ok results));
          check Alcotest.int "store error counted" 1 (Progress.store_errors progress);
          let lines = In_channel.with_open_text events In_channel.input_lines in
          check Alcotest.bool "store_error event in the stream" true
            (List.exists (fun l -> contains l "\"event\": \"store_error\"") lines);
          let summary = List.find (fun l -> contains l "\"event\": \"summary\"") lines in
          check Alcotest.bool "summary carries the counter" true
            (contains summary "\"store_errors\": 1")))

(* An events file that cannot be opened is refused loudly, naming the path,
   not dropped: a sweep must not run without the telemetry it was asked for. *)
let test_unopenable_events_file () =
  let path = "/nonexistent/dir/e.jsonl" in
  match Progress.create ~events_path:path ~live:false ~total:1 () with
  | _ -> Alcotest.fail "Progress.create accepted an unopenable events file"
  | exception Failure msg ->
    check Alcotest.bool (Printf.sprintf "%S names the path" msg) true (contains msg path)

let test_store_sweeps_stale_tmp_files () =
  with_cache_dir (fun d ->
      let old_tmp = Filename.concat d ".tmp.123.0.0" in
      let fresh_tmp = Filename.concat d ".tmp.456.0.0" in
      Out_channel.with_open_bin old_tmp (fun oc -> Out_channel.output_string oc "orphan");
      Out_channel.with_open_bin fresh_tmp (fun oc -> Out_channel.output_string oc "live");
      (* age the orphan two hours past; the fresh one keeps its mtime *)
      let two_hours_ago = Unix.gettimeofday () -. 7200.0 in
      Unix.utimes old_tmp two_hours_ago two_hours_ago;
      store_ok (Cache.key [ "sweep" ]) (sample_perf ());
      check Alcotest.bool "stale tmp swept" false (Sys.file_exists old_tmp);
      check Alcotest.bool "fresh tmp untouched" true (Sys.file_exists fresh_tmp);
      check Alcotest.bool "entry still written" true
        (Cache.load (Cache.key [ "sweep" ]) <> None))

let test_config_specs_are_sensitive () =
  let open Cobra_uarch in
  (* The spec keys every uarch run's cache entry, so a change to any field
     must change it. The record pattern names every field: adding a field
     stops this test compiling until the field gets its variant below. *)
  let ({ Config.fetch_buffer; decode_width; commit_width; rob_entries; int_alus; mem_ports;
         fp_units; history_divergence = _; ras_repair; serialize_fetch; sfb_optimization } as
       d) =
    Config.default
  in
  let divergences =
    List.map
      (fun m -> { d with Config.history_divergence = m })
      [ Config.Ignore; Config.Repair; Config.Replay ]
  in
  let configs =
    List.sort_uniq compare
      (d :: divergences
      @ [
          { d with Config.fetch_buffer = fetch_buffer + 1 };
          { d with Config.decode_width = decode_width + 1 };
          { d with Config.commit_width = commit_width + 1 };
          { d with Config.rob_entries = rob_entries + 1 };
          { d with Config.int_alus = int_alus + 1 };
          { d with Config.mem_ports = mem_ports + 1 };
          { d with Config.fp_units = fp_units + 1 };
          { d with Config.ras_repair = not ras_repair };
          { d with Config.serialize_fetch = not serialize_fetch };
          { d with Config.sfb_optimization = not sfb_optimization };
        ])
  in
  check Alcotest.int "one config per field change and divergence mode" 13 (List.length configs);
  check Alcotest.int "core config spec reflects every field" (List.length configs)
    (List.length (List.sort_uniq String.compare (List.map Config.spec configs)));
  let open Cobra in
  check Alcotest.bool "pipeline config spec reflects fields" false
    (String.equal
       (Pipeline.config_spec Pipeline.default_config)
       (Pipeline.config_spec { Pipeline.default_config with Pipeline.ghist_bits = 32 }));
  let t1 = Designs.tage_l.Designs.make () in
  let t2 = Designs.b2.Designs.make () in
  check Alcotest.bool "topology specs distinguish designs" false
    (String.equal (Topology.spec t1) (Topology.spec t2));
  check Alcotest.bool "topology spec is reproducible" true
    (String.equal (Topology.spec t1) (Topology.spec (Designs.tage_l.Designs.make ())))

(* --- warm runs ------------------------------------------------------------------- *)

let test_warm_run_hits_cache () =
  with_cache_dir (fun d ->
      with_env [ ("COBRA_JOBS", "2") ] (fun () ->
          let ws = List.map Cobra_workloads.Suite.find [ "loop7"; "calls" ] in
          let cold = Experiment.run_matrix ~insns:2_000 Designs.all ws in
          (* second invocation of the same grid: every job must be a cache
             hit, observed through the telemetry the Progress sink mirrors
             to the COBRA_EVENTS JSON-lines file *)
          let events = Filename.concat d "events.jsonl" in
          let warm =
            with_env [ ("COBRA_EVENTS", events) ] (fun () ->
                Experiment.run_matrix ~insns:2_000 Designs.all ws)
          in
          let lines = In_channel.with_open_text events In_channel.input_lines in
          let count p = List.length (List.filter p lines) in
          check Alcotest.int "every job is a cache hit" 6
            (count (fun l -> contains l "\"event\": \"cache_hit\""));
          check Alcotest.int "zero simulation re-runs" 6
            (count (fun l -> contains l "\"cached\": true"));
          check Alcotest.int "no uncached finish" 0
            (count (fun l -> contains l "\"cached\": false"));
          List.iter2
            (fun (a : Experiment.result) (b : Experiment.result) ->
              check Alcotest.(list int) "warm run returns identical counters"
                (perf_fields a.Experiment.perf)
                (perf_fields b.Experiment.perf))
            cold warm))

(* The acceptance matrix for worker-count independence: the same grid under
   COBRA_JOBS in {1, 2, 8} with the cache disabled must produce bit-identical
   Perf counters in the same order, and identical telemetry (job/finish
   counts, zero retries, zero failures) in the events stream. *)
let test_jobs_determinism_and_telemetry () =
  no_cache (fun () ->
      let ws = List.map Cobra_workloads.Suite.find [ "loop7"; "calls" ] in
      let run_at jobs =
        let events =
          Filename.concat (fresh_dir ()) (Printf.sprintf "events.%d.jsonl" jobs)
        in
        let results =
          with_env
            [ ("COBRA_JOBS", string_of_int jobs); ("COBRA_EVENTS", events) ]
            (fun () -> Experiment.run_matrix ~insns:2_000 Designs.all ws)
        in
        let lines = In_channel.with_open_text events In_channel.input_lines in
        (results, lines)
      in
      let baseline, baseline_lines = run_at 1 in
      check Alcotest.int "grid size" 6 (List.length baseline);
      List.iter
        (fun jobs ->
          let results, lines = run_at jobs in
          let label fmt = Printf.sprintf fmt jobs in
          List.iter2
            (fun (a : Experiment.result) (b : Experiment.result) ->
              check Alcotest.string (label "jobs=%d: design order") a.Experiment.design
                b.Experiment.design;
              check Alcotest.string (label "jobs=%d: workload order")
                a.Experiment.workload b.Experiment.workload;
              check Alcotest.(list int)
                (label "jobs=%d: bit-identical counters")
                (perf_fields a.Experiment.perf)
                (perf_fields b.Experiment.perf))
            baseline results;
          let count p ls = List.length (List.filter p ls) in
          let finishes = count (fun l -> contains l "\"event\": \"finish\"") in
          let retries = count (fun l -> contains l "\"event\": \"retry\"") in
          check Alcotest.int (label "jobs=%d: one finish per job") (finishes baseline_lines)
            (finishes lines);
          check Alcotest.int (label "jobs=%d: no retries") 0 (retries lines);
          let summary = List.find (fun l -> contains l "\"event\": \"summary\"") lines in
          check Alcotest.bool (label "jobs=%d: summary counts all jobs done") true
            (contains summary "\"done\": 6" && contains summary "\"failures\": 0"
           && contains summary "\"retries\": 0"))
        [ 2; 8 ])

(* The attribution sweep runs its designs through the pool: with
   COBRA_EVENTS set, one start and one finish event per design under its
   label, and its statistics reports are not cached. *)
let test_attribution_telemetry () =
  with_cache_dir (fun d ->
      let events = Filename.concat d "events.jsonl" in
      let sweep = List.find (fun (s : Sweeps.t) -> s.Sweeps.name = "attribution") Sweeps.all in
      with_env
        [ ("COBRA_JOBS", "2"); ("COBRA_EVENTS", events) ]
        (fun () -> ignore (sweep.Sweeps.run ~insns:2_000 ()));
      let lines = In_channel.with_open_text events In_channel.input_lines in
      let jobs event =
        List.sort compare
          (List.filter_map
             (fun l ->
               if contains l (Printf.sprintf "\"event\": %S" event) then
                 match Cobra_stats.Json.of_string l with
                 | Ok j -> Some (Cobra_stats.Json.int_member "job" j ~default:(-1))
                 | Error e -> Alcotest.failf "events line %S: %s" l e
               else None)
             lines)
      in
      let designs = List.init (List.length Designs.all) Fun.id in
      check Alcotest.(list int) "one start per design" designs (jobs "start");
      check Alcotest.(list int) "one finish per design" designs (jobs "finish");
      check Alcotest.bool "every event is labelled attribution" true
        (List.for_all (fun l -> contains l "\"label\": \"attribution\"") lines);
      check Alcotest.(list string) "no report cached" []
        (List.filter (fun f -> Filename.check_suffix f ".perf") (Array.to_list (Sys.readdir d))))

let test_find_reports_missing_pair () =
  no_cache (fun () ->
      let ws = [ Cobra_workloads.Suite.find "loop7" ] in
      let rs = Experiment.run_matrix ~insns:1_000 Designs.all ws in
      check Alcotest.bool "find_opt misses politely" true
        (Experiment.find_opt rs ~design:"nope" ~workload:"loop7" = None);
      match Experiment.find rs ~design:"B2" ~workload:"missing-workload" with
      | _ -> Alcotest.fail "expected Failure"
      | exception Failure msg ->
        check Alcotest.bool "message names the pair" true
          (contains msg "B2" && contains msg "missing-workload"))

let () =
  Alcotest.run "runner"
    [
      ( "pool",
        [
          Alcotest.test_case "submission order" `Quick test_pool_order_and_parallelism;
          Alcotest.test_case "matrix determinism" `Slow test_pool_matrix_determinism;
          Alcotest.test_case "exception isolation" `Quick test_pool_exception_isolation;
          Alcotest.test_case "retry then succeed" `Quick test_pool_retry_succeeds;
        ] );
      ( "cache",
        [
          Alcotest.test_case "roundtrip" `Quick test_cache_roundtrip;
          Alcotest.test_case "corruption recovery" `Quick test_cache_corruption_recovery;
          Alcotest.test_case "digest sensitivity" `Quick test_cache_digest_sensitivity;
          Alcotest.test_case "store failure reported" `Quick test_store_failure_is_reported;
          Alcotest.test_case "store failure telemetry" `Quick
            test_store_failure_reaches_telemetry;
          Alcotest.test_case "stale tmp sweep" `Quick test_store_sweeps_stale_tmp_files;
          Alcotest.test_case "unopenable events file" `Quick test_unopenable_events_file;
          Alcotest.test_case "spec sensitivity" `Quick test_config_specs_are_sensitive;
        ] );
      ( "warm runs",
        [
          Alcotest.test_case "cache hits" `Slow test_warm_run_hits_cache;
          Alcotest.test_case "jobs determinism + telemetry" `Slow
            test_jobs_determinism_and_telemetry;
          Alcotest.test_case "attribution telemetry" `Quick test_attribution_telemetry;
          Alcotest.test_case "find diagnostics" `Quick test_find_reports_missing_pair;
        ] );
    ]
