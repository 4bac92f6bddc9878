(* The probe suite's fidelity oracle as a tier-1 gate:

   - stream replayability: same (probe, level, seed) gives the identical
     digest; the seed-sensitive probes change under a different seed; a
     stream survives a trace-file round-trip bit-identically;
   - analytical models: [counter_phase_edge] and [alias_model] return the
     closed-form values the oracle judges against;
   - pinned breakpoints: the measured GShare capacity edge, the TAGE-L
     maximum useful history and the loop predictor's trip-count limit are
     asserted as exact levels, not just pass verdicts — moving any of them
     is a predictor-semantics change;
   - the fidelity demo: a gshare that declares 12 history bits but is built
     with 8 must FAIL the ladder, with the collapse measured at 12;
   - the full matrix is green. *)

module Pattern = Cobra_probe.Pattern
module Target = Cobra_probe.Target
module Oracle = Cobra_probe.Oracle
module Btrace = Cobra_trace_replay.Btrace
module Reader = Cobra_trace_replay.Reader

let seed =
  match Sys.getenv_opt "COBRA_SEED" with
  | Some s -> ( match int_of_string_opt (String.trim s) with Some n -> n | None -> 0x0b5a)
  | None -> 0x0b5a

let check = Alcotest.check

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* --- replayability ------------------------------------------------------------ *)

let stream name ~level ~seed =
  let p = Pattern.find_exn name in
  p.Pattern.p_gen ~level ~seed

let test_digest_deterministic () =
  List.iter
    (fun (name, level) ->
      let d1 = Pattern.digest (stream name ~level ~seed) in
      let d2 = Pattern.digest (stream name ~level ~seed) in
      check Alcotest.string (name ^ " digest stable") d1 d2)
    [ ("ladder", 6); ("corr", 8); ("loop", 16); ("phase", 8); ("alias", 48); ("tag", 48) ]

let test_digest_seed_sensitive () =
  (* corr draws its carried outcomes from the seed; a different seed must
     produce a different stream (the replayability witness's converse) *)
  let d1 = Pattern.digest (stream "corr" ~level:8 ~seed) in
  let d2 = Pattern.digest (stream "corr" ~level:8 ~seed:(seed + 1)) in
  check Alcotest.bool "corr digests differ across seeds" true (d1 <> d2)

let test_trace_roundtrip () =
  let s = stream "corr" ~level:6 ~seed in
  let path = Filename.temp_file "cobra_probe" ".trace" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Pattern.to_trace_file ~path s;
      let loaded = Reader.load path in
      check Alcotest.int "record count" (Array.length s.Pattern.s_records) (List.length loaded);
      List.iteri
        (fun i r ->
          if not (Btrace.equal_record s.Pattern.s_records.(i) r) then
            Alcotest.failf "record %d drifted through the trace file" i)
        loaded)

let test_find_case_insensitive () =
  (match Pattern.find "LADDER" with
  | Ok p -> check Alcotest.string "upper-case probe name" "ladder" p.Pattern.p_name
  | Error m -> Alcotest.fail m);
  (match Pattern.find "nope" with
  | Ok _ -> Alcotest.fail "unknown probe accepted"
  | Error m ->
    List.iter
      (fun n -> if not (contains m n) then Alcotest.failf "probe error %S misses %s" m n)
      Pattern.names);
  match Target.find "gshare12" with
  | Ok t -> check Alcotest.string "lower-case target name" "GSHARE12" t.Target.t_name
  | Error m -> Alcotest.fail m

(* --- analytical models --------------------------------------------------------- *)

let test_counter_phase_edge () =
  (* a c-bit counter pays 2^(c-1) mispredicts per flip; first grid level
     with 1 - 2^(c-1)/p >= 0.89 *)
  check Alcotest.int "2-bit counter recovers at 32" 32
    (Target.counter_phase_edge ~counter_bits:2);
  check Alcotest.int "3-bit counter recovers at 64" 64
    (Target.counter_phase_edge ~counter_bits:3)

let test_alias_model () =
  (* 64-entry table: below capacity every site owns its counter *)
  check (Alcotest.float 1e-9) "no aliasing below capacity" 1.0
    (Target.alias_model ~index_bits:6 32);
  check (Alcotest.float 1e-9) "no aliasing at capacity" 1.0
    (Target.alias_model ~index_bits:6 64);
  (* past capacity the model is exact, bounded by the all-mixed worst case *)
  let a72 = Target.alias_model ~index_bits:6 72 in
  check Alcotest.bool "one-past-capacity accuracy in (0,1)" true (a72 > 0.0 && a72 < 1.0)

(* --- measured breakpoints (pinned) ---------------------------------------------- *)

let run_pair target_name probe_name =
  Oracle.run_pair ~target:(Target.find_exn target_name)
    ~probe:(Pattern.find_exn probe_name) ~seed ()

let assert_pass (r : Oracle.result) =
  match r.Oracle.r_verdict with
  | Oracle.Pass -> ()
  | Oracle.Info -> Alcotest.failf "%s/%s: informational, expected a judged pass" r.Oracle.r_target r.Oracle.r_probe
  | Oracle.Fail m -> Alcotest.failf "%s/%s: %s" r.Oracle.r_target r.Oracle.r_probe m

let falling_edge (r : Oracle.result) =
  match
    List.find_opt
      (fun m -> m.Oracle.m_accuracy < Oracle.collapse_threshold)
      r.Oracle.r_series
  with
  | Some m -> m.Oracle.m_level
  | None -> Alcotest.failf "%s/%s: no collapse measured" r.Oracle.r_target r.Oracle.r_probe

let first_miss (r : Oracle.result) =
  match List.find_opt (fun m -> m.Oracle.m_misses > 0) r.Oracle.r_series with
  | Some m -> m.Oracle.m_level
  | None -> Alcotest.failf "%s/%s: no mispredict measured" r.Oracle.r_target r.Oracle.r_probe

let test_gshare_capacity_edge () =
  (* the component (12-bit history gshare) and the composed paper design
     must both collapse exactly one past their usable history *)
  let r = run_pair "GSHARE12" "ladder" in
  assert_pass r;
  check Alcotest.int "GSHARE12 ladder edge" 13 (falling_edge r);
  let rd = run_pair "GShare" "ladder" in
  assert_pass rd;
  check Alcotest.int "GShare design ladder edge" 13 (falling_edge rd);
  let r6 = run_pair "GSHARE6" "ladder" in
  assert_pass r6;
  check Alcotest.int "GSHARE6 ladder edge" 7 (falling_edge r6)

let test_tagel_max_useful_history () =
  (* TAGE's longest history table is 64 bits: the correlated pair is
     carried up to distance 64 and lost at 65 *)
  let r = run_pair "TAGE-L" "corr" in
  assert_pass r;
  check Alcotest.int "TAGE-L max useful history + 1" 65 (falling_edge r)

let test_loop_trip_count_limit () =
  (* the loop predictor's iteration counter saturates at 2^10 - 1 and the
     update rule refuses to learn a saturated trip count, so the first
     period with any mispredict is exactly 2^10 *)
  let r = run_pair "LOOP" "loop" in
  assert_pass r;
  check Alcotest.int "LOOP zero-miss onset" 1024 (first_miss r);
  let rl = run_pair "TAGE-L" "loop" in
  assert_pass rl;
  check Alcotest.int "TAGE-L loop onset" 1024 (first_miss rl)

let test_bim_alias_exact () =
  (* every alias level must match the closed-form orbit model *)
  let r = run_pair "BIM" "alias" in
  assert_pass r;
  List.iter
    (fun m ->
      match m.Oracle.m_model with
      | None -> Alcotest.failf "alias level %d missing its model value" m.Oracle.m_level
      | Some model ->
        if Float.abs (m.Oracle.m_accuracy -. model) > 0.03 then
          Alcotest.failf "alias level %d: measured %.3f vs model %.3f" m.Oracle.m_level
            m.Oracle.m_accuracy model)
    r.Oracle.r_series

(* --- the fidelity demo ----------------------------------------------------------- *)

let test_missized_demo_fails () =
  let t =
    List.find (fun t -> String.equal t.Target.t_name "GSHARE!missized") Target.demos
  in
  let r = Oracle.run_pair ~target:t ~probe:(Pattern.find_exn "ladder") ~seed () in
  (match r.Oracle.r_verdict with
  | Oracle.Fail _ -> ()
  | Oracle.Pass | Oracle.Info -> Alcotest.fail "mis-sized gshare passed its capacity probe");
  (* it *declares* 12 history bits (edge 13) but collapses at its real
     capacity: 12 *)
  check Alcotest.int "measured collapse of the 8-bit impostor" 12 (falling_edge r)

(* --- the whole matrix ------------------------------------------------------------ *)

let test_matrix_green () =
  let report = Oracle.run_matrix ~seed () in
  match Oracle.failures report with
  | [] -> ()
  | fs ->
    Alcotest.failf "%d fidelity failure(s): %s" (List.length fs)
      (String.concat ", "
         (List.map (fun r -> r.Oracle.r_target ^ "/" ^ r.Oracle.r_probe) fs))

let test_report_renders () =
  let t = Target.find_exn "GSHARE6" in
  let report = Oracle.run_matrix ~targets:[ t ] ~seed () in
  let rendered = Oracle.render report in
  check Alcotest.bool "render names the target" true (contains rendered "GSHARE6");
  let json = Cobra_stats.Json.to_string (Oracle.report_json report) in
  check Alcotest.bool "json carries the schema" true (contains json "cobra-probe-report/1");
  let csv = Oracle.report_csv report in
  check Alcotest.bool "csv has the header" true
    (contains csv "target,family,probe,unit,level,samples,misses,accuracy,model,verdict")

let test_timing_schema () =
  let t = Target.find_exn "GSHARE6" in
  let p = Pattern.find_exn "ladder" in
  let json =
    Cobra_stats.Json.to_string (Oracle.timing_series ~target:t ~probe:p ~level:7 ~seed ())
  in
  check Alcotest.bool "timing schema" true (contains json "cobra-probe-timing/1");
  check Alcotest.bool "gap histogram present" true (contains json "mispredict_gap_log2_hist")

(* ------------------------------------------------------------------------------- *)

let () =
  Alcotest.run "probe"
    [
      ( "streams",
        [
          Alcotest.test_case "digests deterministic per seed" `Quick test_digest_deterministic;
          Alcotest.test_case "corr digest seed-sensitive" `Quick test_digest_seed_sensitive;
          Alcotest.test_case "trace-file round-trip" `Quick test_trace_roundtrip;
          Alcotest.test_case "lookups case-insensitive, errors list names" `Quick
            test_find_case_insensitive;
        ] );
      ( "models",
        [
          Alcotest.test_case "counter phase edge" `Quick test_counter_phase_edge;
          Alcotest.test_case "alias orbit model" `Quick test_alias_model;
        ] );
      ( "breakpoints",
        [
          Alcotest.test_case "gshare capacity edges" `Quick test_gshare_capacity_edge;
          Alcotest.test_case "TAGE-L max useful history" `Quick test_tagel_max_useful_history;
          Alcotest.test_case "loop trip-count limit" `Quick test_loop_trip_count_limit;
          Alcotest.test_case "BIM aliasing matches the orbit model" `Quick test_bim_alias_exact;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "mis-sized gshare fails its probe" `Quick test_missized_demo_fails;
          Alcotest.test_case "full matrix green" `Slow test_matrix_green;
          Alcotest.test_case "report renders (text/json/csv)" `Quick test_report_renders;
          Alcotest.test_case "timing series schema" `Quick test_timing_schema;
        ] );
    ]
