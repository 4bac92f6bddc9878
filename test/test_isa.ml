open Cobra_isa
module P = Program

let check = Alcotest.check

let contains haystack needle =
  let n = String.length needle and m = String.length haystack in
  let rec go i = i + n <= m && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

(* --- instruction classification ------------------------------------------- *)

let test_classify () =
  let open Insn in
  check Alcotest.bool "alu is not a branch" true (classify_jump (Alu (Add, 1, 2, 3)) = None);
  check Alcotest.bool "branch is cond" true
    (classify_jump (Branch (Eq, 1, 2, "x")) = Some Cobra.Types.Cond);
  check Alcotest.bool "jal x0 is jump" true (classify_jump (Jal (zero, "x")) = Some Cobra.Types.Jump);
  check Alcotest.bool "jal ra is call" true (classify_jump (Jal (ra, "x")) = Some Cobra.Types.Call);
  check Alcotest.bool "jalr x0,ra is ret" true
    (classify_jump (Jalr (zero, ra, 0)) = Some Cobra.Types.Ret);
  check Alcotest.bool "jalr x0,other is ind" true
    (classify_jump (Jalr (zero, 7, 0)) = Some Cobra.Types.Ind)

let test_uses_defines () =
  let open Insn in
  check Alcotest.(list int) "store uses both" [ 4; 3 ] (uses (Store (3, 4, 0)));
  check Alcotest.(option int) "store defines nothing" None (defines (Store (3, 4, 0)));
  check Alcotest.(option int) "x0 writes discarded" None (defines (Li (0, 5)));
  check Alcotest.(list int) "x0 sources dropped" [] (uses (Alu (Add, 3, 0, 0)))

(* --- assembler --------------------------------------------------------------- *)

let test_assemble_labels () =
  let p = P.assemble ~base:0x1000 [ P.label "top"; P.addi 3 3 1; P.j "top" ] in
  check Alcotest.int "length" 2 (P.length p);
  check Alcotest.int "label address" 0x1000 (P.address_of p "top");
  check Alcotest.int "jump target resolved" 0x1000 p.P.targets.(1)

let test_assemble_forward_reference () =
  let p = P.assemble [ P.beq 1 2 "end"; P.addi 3 3 1; P.label "end"; P.halt ] in
  check Alcotest.int "forward target" (p.P.base + 8) p.P.targets.(0)

let test_assemble_duplicate_label () =
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Program.assemble: duplicate label x") (fun () ->
      ignore (P.assemble [ P.label "x"; P.nop; P.label "x" ]))

let test_assemble_unknown_label () =
  Alcotest.check_raises "unknown" (Invalid_argument "Program.assemble: unknown label nope")
    (fun () -> ignore (P.assemble [ P.j "nope" ]))

(* --- machine execution --------------------------------------------------------- *)

let run_program ?(max = 1000) lines =
  let m = Machine.create (P.assemble lines) in
  let events = Machine.run m ~max_insns:max in
  (m, events)

let test_arithmetic () =
  let m, _ =
    run_program [ P.li 3 21; P.li 4 2; P.mul 5 3 4; P.addi 5 5 (-2); P.halt ]
  in
  check Alcotest.int "21*2-2" 40 (Machine.reg m 5)

let test_division_by_zero_is_total () =
  let m, _ = run_program [ P.li 3 7; P.li 4 0; P.div 5 3 4; P.rem 6 3 4; P.halt ] in
  check Alcotest.int "div by zero yields 0" 0 (Machine.reg m 5);
  check Alcotest.int "rem by zero yields 0" 0 (Machine.reg m 6)

let test_branch_taken_and_fallthrough () =
  let _, events =
    run_program
      [ P.li 3 1; P.beq 3 0 "skip"; P.addi 4 4 1; P.label "skip"; P.beq 3 3 "end";
        P.addi 4 4 100; P.label "end"; P.halt ]
  in
  let branches = List.filter_map (fun e -> e.Trace.branch) events in
  check Alcotest.(list bool) "directions" [ false; true ]
    (List.map (fun b -> b.Trace.taken) branches)

let test_memory_roundtrip () =
  let m, events =
    run_program [ P.li 3 0x50; P.li 4 42; P.sw 4 3 4; P.lw 5 3 4; P.halt ]
  in
  check Alcotest.int "loaded" 42 (Machine.reg m 5);
  let addrs = List.filter_map (fun e -> e.Trace.addr) events in
  (* byte addresses: word 0x54 -> 0x150 *)
  check Alcotest.(list int) "addresses" [ 0x54 * 4; 0x54 * 4 ] addrs

let test_call_ret_events () =
  let _, events =
    run_program
      [ P.call "f"; P.halt; P.label "f"; P.addi 3 3 1; P.ret ]
  in
  let kinds = List.filter_map (fun e -> Option.map (fun b -> b.Trace.kind) e.Trace.branch) events in
  check Alcotest.bool "call then ret" true (kinds = [ Cobra.Types.Call; Cobra.Types.Ret ])

let test_next_pc_coherence () =
  (* the invariant the core model relies on: each event's next_pc is the
     next event's pc *)
  let _, events =
    run_program ~max:200
      [ P.li 28 5; P.label "l"; P.addi 3 3 1; P.addi 28 28 (-1); P.bne 28 0 "l"; P.halt ]
  in
  let rec coherent = function
    | a :: (b :: _ as rest) -> a.Trace.next_pc = b.Trace.pc && coherent rest
    | _ -> true
  in
  check Alcotest.bool "pc chain" true (coherent events);
  (* li + 5 iterations x (addi, addi, bne); halt emits no event *)
  check Alcotest.int "executed" (1 + (5 * 3)) (List.length events)

let test_halt_ends_stream () =
  let m, events = run_program [ P.nop; P.halt ] in
  check Alcotest.int "one event" 1 (List.length events);
  check Alcotest.bool "halted" true (Machine.halted m);
  check Alcotest.bool "stream empty" true (Machine.step m = None)

(* --- streams --------------------------------------------------------------------- *)

let test_window_rewind () =
  let evs = List.init 5 (fun i -> Trace.plain ~pc:(0x100 + (4 * i)) ~cls:Trace.Alu) in
  let pulls = ref 0 in
  let source = Trace.of_list evs in
  let w = Trace.Window.create (fun () -> incr pulls; source ()) in
  let e1 = Option.get (Trace.Window.next w) in
  let e2 = Option.get (Trace.Window.next w) in
  Trace.Window.rewind w 0;
  check Alcotest.int "re-delivered in order" e1.Trace.pc
    (Option.get (Trace.Window.next w)).Trace.pc;
  check Alcotest.int "then the second" e2.Trace.pc
    (Option.get (Trace.Window.next w)).Trace.pc;
  check Alcotest.int "each event pulled once" 2 !pulls;
  Trace.Window.release w 1;
  check Alcotest.bool "no rewind below the base" true
    (match Trace.Window.rewind w 0 with
    | () -> false
    | exception Invalid_argument _ -> true)

let test_peek_does_not_consume () =
  let w = Trace.Window.create (Trace.of_list [ Trace.plain ~pc:4 ~cls:Trace.Alu ]) in
  check Alcotest.bool "peek twice" true
    (Trace.Window.peek w = Trace.Window.peek w);
  check Alcotest.bool "next still delivers" true (Trace.Window.next w <> None);
  check Alcotest.bool "then empty" true (Trace.Window.next w = None)

type window_op = Peek | Next of int | Rewind of int | Release of int

(* [Next k] delivers k events; [Rewind k] aims at the cursor minus k and
   [Release k] at the base plus k, so a negative or large k aims outside
   the window. *)
let window_op =
  QCheck.make
    ~print:(function
      | Peek -> "peek"
      | Next k -> Printf.sprintf "next x%d" k
      | Rewind k -> Printf.sprintf "rewind cursor-%d" k
      | Release k -> Printf.sprintf "release base+%d" k)
    (fun st ->
      let k () = Random.State.int st 15 - 2 in
      match Random.State.int st 20 with
      | 0 | 1 -> Peek
      | 2 -> Next (1 + Random.State.int st 80)
      | n when n < 12 -> Next 1
      | n when n < 17 -> Rewind (k ())
      | _ -> Release (k ()))

(* The window against a plain-list model of an [n]-event stream: the event
   delivered is the one at the cursor, a rewind or release inside
   [base, cursor] moves the cursor or the base and any other one raises
   without moving either, and each event is pulled from the source once,
   when it is first needed. *)
let prop_window (n, ops) =
  let pulls = ref 0 in
  let source () =
    if !pulls < n then begin
      incr pulls;
      Some (Trace.plain ~pc:(4 * (!pulls - 1)) ~cls:Trace.Alu)
    end
    else None
  in
  let w = Trace.Window.create source in
  let base = ref 0 and cursor = ref 0 and needed = ref 0 in
  let deliver get =
    let want = if !cursor < n then Some (4 * !cursor) else None in
    check Alcotest.(option int) "event at the cursor" want
      (Option.map (fun e -> e.Trace.pc) (get w));
    if want <> None then needed := max !needed (!cursor + 1)
  in
  let move name f p set =
    let inside = p >= !base && p <= !cursor in
    match f w p with
    | () ->
      if not inside then Alcotest.failf "%s to %d outside [%d, %d] did not raise" name p !base !cursor;
      set p
    | exception Invalid_argument _ ->
      if inside then Alcotest.failf "%s to %d inside [%d, %d] raised" name p !base !cursor
  in
  List.iter
    (fun op ->
      (match op with
      | Peek -> deliver Trace.Window.peek
      | Next k ->
        for _ = 1 to k do
          deliver Trace.Window.next;
          if !cursor < n then incr cursor
        done
      | Rewind k -> move "rewind" Trace.Window.rewind (!cursor - k) (fun p -> cursor := p)
      | Release k -> move "release" Trace.Window.release (!base + k) (fun p -> base := p));
      check Alcotest.int "position" !cursor (Trace.Window.position w);
      check Alcotest.int "events pulled" !needed !pulls)
    ops;
  true

let test_window_model () =
  Prop.check
  @@ QCheck.Test.make ~name:"window against a list model"
       QCheck.(pair (int_range 0 300) (list_of_size Gen.(0 -- 300) window_op))
       prop_window

let test_sfb_detection () =
  let branch ~pc ~target ~taken =
    {
      (Trace.plain ~pc ~cls:Trace.Alu) with
      Trace.branch = Some { Trace.kind = Cobra.Types.Cond; taken; target };
      next_pc = (if taken then target else pc + 4);
    }
  in
  check Alcotest.bool "short forward" true
    (Trace.is_short_forward_branch (branch ~pc:0x100 ~target:0x110 ~taken:false));
  check Alcotest.bool "backward is not" false
    (Trace.is_short_forward_branch (branch ~pc:0x100 ~target:0xF0 ~taken:true));
  check Alcotest.bool "long forward is not" false
    (Trace.is_short_forward_branch (branch ~pc:0x100 ~target:0x200 ~taken:false))

let test_static_decode () =
  let p =
    P.assemble ~base:0x1000
      [ P.addi 3 3 1; P.beq 3 4 "end"; P.call "end"; P.lw 5 3 0; P.label "end"; P.ret ]
  in
  let d pc = Machine.static_decode p ~pc in
  (* alu *)
  let a = Option.get (d 0x1000) in
  check Alcotest.bool "alu no branch" true (a.Trace.branch = None);
  (* conditional: kind + static target, direction defaults to not-taken *)
  let b = Option.get (d 0x1004) in
  (match b.Trace.branch with
  | Some info ->
    check Alcotest.bool "cond kind" true (info.Trace.kind = Cobra.Types.Cond);
    check Alcotest.int "static target" 0x1010 info.Trace.target;
    check Alcotest.bool "direction unknown -> not taken" false info.Trace.taken
  | None -> Alcotest.fail "expected branch");
  (* call decodes as taken with its target *)
  let c = Option.get (d 0x1008) in
  (match c.Trace.branch with
  | Some info ->
    check Alcotest.bool "call kind" true (info.Trace.kind = Cobra.Types.Call);
    check Alcotest.bool "uncond decodes taken" true info.Trace.taken
  | None -> Alcotest.fail "expected call");
  (* load class survives; outside the image decodes to None *)
  check Alcotest.bool "load class" true ((Option.get (d 0x100C)).Trace.cls = Trace.Load);
  check Alcotest.bool "outside image" true (d 0x2000 = None);
  check Alcotest.bool "misaligned" true (d 0x1001 = None)

let test_trace_file_roundtrip () =
  let events = Trace.take (Cobra_workloads.Kernels.calls ~depth:3 ()) 300 in
  let path = Filename.temp_file "cobra" ".trace" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () ->
      Trace_file.save ~path events;
      let loaded = Trace_file.load ~path in
      check Alcotest.int "same length" (List.length events) (List.length loaded);
      check Alcotest.bool "identical events" true (events = loaded))

let test_trace_file_comments_skipped () =
  let parsed = Trace_file.event_of_string "# a comment" in
  check Alcotest.bool "comment" true (parsed = None);
  check Alcotest.bool "blank" true (Trace_file.event_of_string "   " = None)

let expect_failure_containing label needles f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Failure" label
  | exception Failure msg ->
    List.iter
      (fun needle ->
        if not (contains msg needle) then
          Alcotest.failf "%s: message %S does not mention %S" label msg needle)
      needles

let test_trace_file_rejects_garbage () =
  expect_failure_containing "garbage" [ "zz"; "truncated" ] (fun () ->
      Trace_file.event_of_string "zz");
  (* with a line number supplied, the message names it *)
  expect_failure_containing "garbage with lnum" [ "zz"; "line 7" ] (fun () ->
      Trace_file.event_of_string ~lnum:7 "zz")

let test_trace_file_rejects_negative_registers () =
  expect_failure_containing "negative D" [ "negative D register"; "-3" ] (fun () ->
      Trace_file.event_of_string "1000 alu 1004 D -3");
  expect_failure_containing "negative S" [ "negative S register"; "-2" ] (fun () ->
      Trace_file.event_of_string "1000 alu 1004 S 1,-2");
  expect_failure_containing "bad taken flag" [ "taken flag" ] (fun () ->
      Trace_file.event_of_string "1000 alu 1004 B cond 2 1040");
  expect_failure_containing "unknown field" [ "unknown field" ] (fun () ->
      Trace_file.event_of_string "1000 alu 1004 X 5")

let test_trace_file_errors_name_line_numbers () =
  (* line 1 is the header comment, lines 2-3 are valid, line 4 is corrupt *)
  let path = Filename.temp_file "cobra" ".trace" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () ->
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc
            "# cobra trace v1\n1000 alu 1004\n1004 alu 1008\n1008 bogus 100c\n");
      expect_failure_containing "load" [ "line 4"; "bogus" ] (fun () ->
          Trace_file.load ~path))

let test_branch_exn () =
  let ev = Trace.plain ~pc:0xbeef ~cls:Trace.Alu in
  expect_failure_containing "branch_exn" [ "Sfb.transform"; "beef" ] (fun () ->
      Trace.branch_exn ~who:"Sfb.transform" ev);
  let b =
    { Trace.kind = Cobra.Types.Cond; taken = true; target = 0x1040 }
  in
  check Alcotest.bool "passes branch info through" true
    (Trace.branch_exn { ev with Trace.branch = Some b } = b)

let test_trace_file_stream_replays_through_core () =
  let events = Trace.take (Cobra_workloads.Kernels.periodic_loop ~trips:5 ()) 2_000 in
  let path = Filename.temp_file "cobra" ".trace" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () ->
      Trace_file.save ~path events;
      let pl = Cobra_eval.Designs.pipeline Cobra_eval.Designs.b2 in
      let core =
        Cobra_uarch.Core.create Cobra_uarch.Config.default pl
          (Trace_file.load_stream ~path)
      in
      let perf = Cobra_uarch.Core.run core ~max_insns:10_000 in
      check Alcotest.int "all replayed instructions commit" 2_000
        perf.Cobra_uarch.Perf.instructions)

let prop_machine_deterministic =
  QCheck.Test.make ~name:"machine runs are deterministic" ~count:20
    QCheck.(int_bound 1000)
    (fun seed ->
      let mk () = Cobra_workloads.Kernels.biased ~bias_percent:70 ~seed () in
      let a = Trace.take (mk ()) 500 and b = Trace.take (mk ()) 500 in
      a = b)

let () =
  Alcotest.run "cobra_isa"
    [
      ( "insn",
        [
          Alcotest.test_case "classify" `Quick test_classify;
          Alcotest.test_case "uses/defines" `Quick test_uses_defines;
        ] );
      ( "assembler",
        [
          Alcotest.test_case "labels" `Quick test_assemble_labels;
          Alcotest.test_case "forward reference" `Quick test_assemble_forward_reference;
          Alcotest.test_case "duplicate label" `Quick test_assemble_duplicate_label;
          Alcotest.test_case "unknown label" `Quick test_assemble_unknown_label;
        ] );
      ( "machine",
        [
          Alcotest.test_case "arithmetic" `Quick test_arithmetic;
          Alcotest.test_case "division total" `Quick test_division_by_zero_is_total;
          Alcotest.test_case "branches" `Quick test_branch_taken_and_fallthrough;
          Alcotest.test_case "memory" `Quick test_memory_roundtrip;
          Alcotest.test_case "call/ret" `Quick test_call_ret_events;
          Alcotest.test_case "pc coherence" `Quick test_next_pc_coherence;
          Alcotest.test_case "halt" `Quick test_halt_ends_stream;
          Prop.test_case prop_machine_deterministic;
        ] );
      ( "streams",
        [
          Alcotest.test_case "rewind" `Quick test_window_rewind;
          Alcotest.test_case "peek" `Quick test_peek_does_not_consume;
          Alcotest.test_case "window against a list model" `Quick test_window_model;
          Alcotest.test_case "sfb detection" `Quick test_sfb_detection;
        ] );
      ("static decode", [ Alcotest.test_case "decode" `Quick test_static_decode ]);
      ( "trace_file",
        [
          Alcotest.test_case "roundtrip" `Quick test_trace_file_roundtrip;
          Alcotest.test_case "comments" `Quick test_trace_file_comments_skipped;
          Alcotest.test_case "garbage" `Quick test_trace_file_rejects_garbage;
          Alcotest.test_case "negative registers" `Quick
            test_trace_file_rejects_negative_registers;
          Alcotest.test_case "line numbers" `Quick
            test_trace_file_errors_name_line_numbers;
          Alcotest.test_case "branch_exn" `Quick test_branch_exn;
          Alcotest.test_case "replay through core" `Quick
            test_trace_file_stream_replays_through_core;
        ] );
    ]
