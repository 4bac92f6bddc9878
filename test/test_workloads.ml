open Cobra_workloads
module Trace = Cobra_isa.Trace

let check = Alcotest.check

(* Every workload must produce an endless, control-flow-coherent stream:
   the core model relies on event N's next_pc equalling event N+1's pc. *)

let coherent events =
  let rec loop = function
    | a :: (b :: _ as rest) -> a.Trace.next_pc = b.Trace.pc && loop rest
    | _ -> true
  in
  loop events

let sample entry = Trace.take (entry.Suite.make ()) 20_000

let test_stream entry () =
  let events = sample entry in
  check Alcotest.int "does not halt early" 20_000 (List.length events);
  check Alcotest.bool "pc-coherent" true (coherent events);
  let branches = List.filter (fun e -> e.Trace.branch <> None) events in
  let density = float_of_int (List.length branches) /. 20_000.0 in
  check Alcotest.bool
    (Printf.sprintf "branch density %.2f within [0.05, 0.5]" density)
    true
    (density >= 0.05 && density <= 0.5)

let test_fresh_streams_are_independent () =
  let e = Suite.find "mcf" in
  let a = sample e and b = sample e in
  check Alcotest.bool "same content" true (a = b)

let branch_events entry n =
  List.filter_map (fun e -> Option.map (fun b -> (e, b)) e.Trace.branch)
    (Trace.take (entry.Suite.make ()) n)

let test_perlbench_has_indirect_jumps () =
  let kinds = List.map (fun (_, b) -> b.Trace.kind) (branch_events (Suite.find "perlbench") 20_000) in
  check Alcotest.bool "contains indirect" true (List.mem Cobra.Types.Ind kinds)

let test_xalancbmk_has_calls_and_rets () =
  let kinds = List.map (fun (_, b) -> b.Trace.kind) (branch_events (Suite.find "xalancbmk") 20_000) in
  check Alcotest.bool "calls" true (List.mem Cobra.Types.Call kinds);
  check Alcotest.bool "rets" true (List.mem Cobra.Types.Ret kinds)

let test_mcf_has_large_footprint () =
  let addrs =
    List.filter_map (fun e -> e.Trace.addr) (Trace.take ((Suite.find "mcf").Suite.make ()) 40_000)
  in
  let lines = List.sort_uniq compare (List.map (fun a -> a / 64) addrs) in
  check Alcotest.bool
    (Printf.sprintf "%d distinct lines > 512 (32 KB L1)" (List.length lines))
    true
    (List.length lines > 512)

let test_x264_mostly_predictable () =
  (* fixed-trip loops: almost all conditional branches follow a periodic
     pattern; sanity-check by measuring bias uniformity per site *)
  let branches = branch_events (Suite.find "x264") 20_000 in
  let conds = List.filter (fun (_, b) -> b.Trace.kind = Cobra.Types.Cond) branches in
  check Alcotest.bool "has conditional branches" true (List.length conds > 500)

let test_coremark_is_hammock_rich () =
  let events = Trace.take ((Suite.find "coremark").Suite.make ()) 20_000 in
  let sfbs = Cobra_uarch.Sfb.count_sfbs events in
  check Alcotest.bool (Printf.sprintf "%d SFBs" sfbs) true (sfbs > 200)

let test_exchange2_loop_structure () =
  (* nested fixed-trip loops: plenty of conditional back-edges with a
     strongly structured (neither degenerate) taken ratio *)
  let branches = branch_events (Suite.find "exchange2") 10_000 in
  let conds = List.filter (fun (_, b) -> b.Trace.kind = Cobra.Types.Cond) branches in
  let taken = List.length (List.filter (fun (_, b) -> b.Trace.taken) conds) in
  let ratio = float_of_int taken /. float_of_int (List.length conds) in
  check Alcotest.bool "many conditional branches" true (List.length conds > 1000);
  check Alcotest.bool (Printf.sprintf "taken ratio %.2f in [0.3,0.9]" ratio) true
    (ratio > 0.3 && ratio < 0.9)

let test_xz_has_biased_regions () =
  let branches = branch_events (Suite.find "xz") 30_000 in
  let conds = List.filter (fun (_, b) -> b.Trace.kind = Cobra.Types.Cond) branches in
  let taken = List.length (List.filter (fun (_, b) -> b.Trace.taken) conds) in
  let ratio = float_of_int taken /. float_of_int (List.length conds) in
  check Alcotest.bool "neither always nor never taken" true (ratio > 0.2 && ratio < 0.95)

let test_suite_names_unique () =
  let names = List.map (fun e -> e.Suite.name) Suite.all in
  check Alcotest.int "unique" (List.length names)
    (List.length (List.sort_uniq String.compare names))

let test_find () =
  check Alcotest.string "find" "gcc" (Suite.find "gcc").Suite.name;
  Alcotest.check_raises "unknown" Not_found (fun () -> ignore (Suite.find "nope"))

let () =
  let stream_cases =
    List.map
      (fun entry ->
        Alcotest.test_case ("stream " ^ entry.Suite.name) `Quick (test_stream entry))
      Suite.all
  in
  Alcotest.run "cobra_workloads"
    [
      ("streams", stream_cases);
      ( "characters",
        [
          Alcotest.test_case "fresh streams independent" `Quick test_fresh_streams_are_independent;
          Alcotest.test_case "perlbench indirect" `Quick test_perlbench_has_indirect_jumps;
          Alcotest.test_case "xalancbmk calls/rets" `Quick test_xalancbmk_has_calls_and_rets;
          Alcotest.test_case "mcf footprint" `Quick test_mcf_has_large_footprint;
          Alcotest.test_case "x264 conds" `Quick test_x264_mostly_predictable;
          Alcotest.test_case "coremark hammocks" `Quick test_coremark_is_hammock_rich;
          Alcotest.test_case "exchange2 loops" `Quick test_exchange2_loop_structure;
          Alcotest.test_case "xz biased regions" `Quick test_xz_has_biased_regions;
        ] );
      ( "suite",
        [
          Alcotest.test_case "unique names" `Quick test_suite_names_unique;
          Alcotest.test_case "find" `Quick test_find;
        ] );
    ]
