(* Focused unit tests for the smaller supporting modules: text rendering,
   bit helpers, performance-counter math, core configuration, machine
   instruction coverage and indexing descriptions. *)

open Cobra_util

let check = Alcotest.check

(* --- Bitops --------------------------------------------------------------- *)

let test_bitops () =
  check Alcotest.bool "power of two" true (Bitops.is_power_of_two 64);
  check Alcotest.bool "not power of two" false (Bitops.is_power_of_two 48);
  check Alcotest.bool "zero" false (Bitops.is_power_of_two 0);
  check Alcotest.int "log2" 6 (Bitops.log2_exact 64);
  Alcotest.check_raises "log2 of non-power"
    (Invalid_argument "Bitops.log2_exact: not a power of two") (fun () ->
      ignore (Bitops.log2_exact 48));
  check Alcotest.int "bits for 1" 0 (Bitops.bits_needed 1);
  check Alcotest.int "bits for 2" 1 (Bitops.bits_needed 2);
  check Alcotest.int "bits for 5" 3 (Bitops.bits_needed 5)

(* --- Text rendering -------------------------------------------------------- *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec loop i = i + nn <= nh && (String.sub haystack i nn = needle || loop (i + 1)) in
  loop 0

let test_table_rendering () =
  let t =
    Text_render.table ~title:"T" ~header:[ "a"; "value" ]
      ~rows:[ [ "row1"; "1.50" ]; [ "row2"; "22.00" ] ]
      ()
  in
  check Alcotest.bool "title" true (contains t "T");
  check Alcotest.bool "numeric right-aligned" true (contains t " 1.50 |");
  check Alcotest.bool "separators" true (contains t "+==")

let test_table_ragged_rows () =
  (* rows shorter than the header must not raise *)
  let t = Text_render.table ~header:[ "a"; "b"; "c" ] ~rows:[ [ "x" ] ] () in
  check Alcotest.bool "rendered" true (String.length t > 0)

let test_bar_chart () =
  let c = Text_render.bar_chart ~title:"chart" ~unit:"u" [ ("x", 1.0); ("y", 2.0) ] in
  check Alcotest.bool "labels" true (contains c "x" && contains c "y");
  check Alcotest.bool "values" true (contains c "2.000")

let test_bar_chart_all_zero () =
  let c = Text_render.bar_chart ~title:"z" ~unit:"u" [ ("x", 0.0) ] in
  check Alcotest.bool "no crash on zero max" true (contains c "0.000")

let test_grouped_chart () =
  let c =
    Text_render.grouped_bar_chart ~title:"g" ~unit:"u" ~series:[ "s1"; "s2" ]
      [ ("bench", [ 1.0; 2.0 ]) ]
  in
  check Alcotest.bool "series names" true (contains c "s1" && contains c "s2")

let test_stacked_rows () =
  let c =
    Text_render.stacked_rows ~title:"s" ~unit:"u" ~parts:[ "p1"; "p2" ]
      [ ("d", [ 3.0; 1.0 ]) ]
  in
  check Alcotest.bool "percentages" true (contains c "75.0%")

(* --- Perf math ---------------------------------------------------------------- *)

let test_perf_math () =
  let open Cobra_uarch in
  let p = Perf.create () in
  p.Perf.cycles <- 1000;
  p.Perf.instructions <- 2500;
  p.Perf.branches <- 500;
  p.Perf.mispredicts <- 50;
  check (Alcotest.float 1e-9) "ipc" 2.5 (Perf.ipc p);
  check (Alcotest.float 1e-9) "mpki" 20.0 (Perf.mpki p);
  check (Alcotest.float 1e-9) "accuracy" 0.9 (Perf.branch_accuracy p)

let test_perf_empty () =
  let open Cobra_uarch in
  let p = Perf.create () in
  check (Alcotest.float 1e-9) "ipc 0" 0.0 (Perf.ipc p);
  check (Alcotest.float 1e-9) "accuracy 1 with no branches" 1.0 (Perf.branch_accuracy p)

(* --- Config rows ------------------------------------------------------------------ *)

let test_config_rows () =
  let rows = Cobra_uarch.Config.rows Cobra_uarch.Config.default in
  let text = String.concat "\n" (List.map (fun (a, b) -> a ^ " " ^ b) rows) in
  check Alcotest.bool "fetch width" true (contains text "16-byte wide fetch");
  check Alcotest.bool "rob" true (contains text "128-entry ROB");
  check Alcotest.bool "pipes" true (contains text "8 pipelines (4 ALU, 2 MEM, 2 FP)")

(* --- Machine instruction coverage --------------------------------------------------- *)

let run lines =
  let m = Cobra_isa.Machine.create (Cobra_isa.Program.assemble lines) in
  ignore (Cobra_isa.Machine.run m ~max_insns:100);
  m

let test_shift_and_logic_ops () =
  let open Cobra_isa.Program in
  let m =
    run
      [ li 3 0b1100; li 4 2; sll 5 3 4; srl 6 3 4; and_ 7 3 4; or_ 8 3 4; xor 9 3 4;
        slt 10 4 3; halt ]
  in
  let reg = Cobra_isa.Machine.reg m in
  check Alcotest.int "sll" 0b110000 (reg 5);
  check Alcotest.int "srl" 0b11 (reg 6);
  check Alcotest.int "and" 0 (reg 7);
  check Alcotest.int "or" 0b1110 (reg 8);
  check Alcotest.int "xor" 0b1110 (reg 9);
  check Alcotest.int "slt" 1 (reg 10)

let test_fma_semantics () =
  let open Cobra_isa.Program in
  let m = run [ li 3 4; li 5 6; li 7 10; fma 7 3 5; halt ] in
  (* rd += rs1*rs2 *)
  check Alcotest.int "fma" 34 (Cobra_isa.Machine.reg m 7)

let test_blt_bge () =
  let open Cobra_isa.Program in
  let m =
    run
      [ li 3 (-5); li 4 5; li 9 0; blt 3 4 "a"; addi 9 9 100; label "a"; addi 9 9 1;
        bge 3 4 "b"; addi 9 9 10; label "b"; halt ]
  in
  check Alcotest.int "blt taken, bge not taken" 11 (Cobra_isa.Machine.reg m 9)

let test_x0_is_hardwired_zero () =
  let open Cobra_isa.Program in
  let m = run [ li 0 42; addi 0 0 7; halt ] in
  check Alcotest.int "x0 stays zero" 0 (Cobra_isa.Machine.reg m 0)

let test_machine_leaves_program_halts () =
  (* running off the end of the code halts rather than raising *)
  let open Cobra_isa.Program in
  let m = Cobra_isa.Machine.create (assemble [ nop; nop ]) in
  let events = Cobra_isa.Machine.run m ~max_insns:10 in
  check Alcotest.int "two events then halt" 2 (List.length events);
  check Alcotest.bool "halted" true (Cobra_isa.Machine.halted m)

(* --- Indexing description ------------------------------------------------------------ *)

let test_indexing_describe () =
  let open Cobra_components.Indexing in
  check Alcotest.string "pc" "pc" (describe Pc);
  check Alcotest.string "hash" "hash(pc^ghist[8])" (describe (Hash [ Pc; Ghist 8 ]));
  check Alcotest.string "phist" "phist[6]" (describe (Phist 6));
  check Alcotest.string "lhist" "lhist[4]" (describe (Lhist 4));
  check Alcotest.string "concat" "concat(pc:3++ghist[4]:4)"
    (describe (Concat [ (Pc, 3); (Ghist 4, 4) ]))

(* --- Storage arithmetic ---------------------------------------------------------------- *)

let test_storage_arithmetic () =
  let open Cobra in
  let a = Storage.make ~sram_bits:8192 ~flop_bits:64 ~logic_gates:100 () in
  let b = Storage.make ~sram_bits:8192 () in
  let s = Storage.add a b in
  check Alcotest.int "sram adds" 16384 s.Storage.sram_bits;
  check Alcotest.int "total bits" (16384 + 64) (Storage.total_bits s);
  check (Alcotest.float 1e-9) "kb" 2.0 (Storage.kilobytes (Storage.scale b 2));
  Alcotest.check_raises "negative rejected" (Invalid_argument "Storage.make: negative amount")
    (fun () -> ignore (Storage.make ~sram_bits:(-1) ()))

let test_component_label () =
  let open Cobra in
  let c =
    Component.make ~name:"X" ~family:Component.Static ~fetch_width:4 ~latency:2 ~meta_bits:0
      ~storage:Storage.zero
      ~predict:(fun _ ~pred_in:_ ~out:_ ~meta:_ -> ())
      ()
  in
  check Alcotest.string "paper notation" "X_2" (Component.label c);
  Alcotest.check_raises "latency 0 rejected"
    (Invalid_argument "Component.make Y: latency 0 < 1 (histories arrive at Fetch-1)")
    (fun () ->
      ignore
        (Component.make ~name:"Y" ~family:Component.Static ~fetch_width:4 ~latency:0
           ~meta_bits:0
           ~storage:Cobra.Storage.zero
           ~predict:(fun _ ~pred_in:_ ~out:_ ~meta:_ -> ())
           ()))

let () =
  Alcotest.run "cobra_misc"
    [
      ("bitops", [ Alcotest.test_case "all" `Quick test_bitops ]);
      ( "text_render",
        [
          Alcotest.test_case "table" `Quick test_table_rendering;
          Alcotest.test_case "ragged rows" `Quick test_table_ragged_rows;
          Alcotest.test_case "bar chart" `Quick test_bar_chart;
          Alcotest.test_case "zero max" `Quick test_bar_chart_all_zero;
          Alcotest.test_case "grouped" `Quick test_grouped_chart;
          Alcotest.test_case "stacked" `Quick test_stacked_rows;
        ] );
      ( "perf",
        [
          Alcotest.test_case "math" `Quick test_perf_math;
          Alcotest.test_case "empty" `Quick test_perf_empty;
        ] );
      ("config", [ Alcotest.test_case "rows" `Quick test_config_rows ]);
      ( "machine coverage",
        [
          Alcotest.test_case "shifts and logic" `Quick test_shift_and_logic_ops;
          Alcotest.test_case "fma" `Quick test_fma_semantics;
          Alcotest.test_case "blt/bge" `Quick test_blt_bge;
          Alcotest.test_case "x0 hardwired" `Quick test_x0_is_hardwired_zero;
          Alcotest.test_case "off-the-end halts" `Quick test_machine_leaves_program_halts;
        ] );
      ("indexing", [ Alcotest.test_case "describe" `Quick test_indexing_describe ]);
      ( "storage/component",
        [
          Alcotest.test_case "storage arithmetic" `Quick test_storage_arithmetic;
          Alcotest.test_case "component label" `Quick test_component_label;
        ] );
    ]
