(* Tests for the extension components (YAGS, perceptron, statistical
   corrector, static predictors) and the gshare and gselect indexings of
   HBIM. *)

open Cobra
open Cobra_components
module Bits = Cobra_util.Bits

let check = Alcotest.check
let width = 4

(* 4K-entry gshare (12 history bits) and gselect (6 PC ++ 6 history bits). *)
let gshare ~name =
  Hbim.make
    { (Hbim.default ~name ~indexing:Indexing.(Hash [ Pc; Ghist 12 ])) with entries = 4096 }

let gselect ~name =
  Hbim.make
    {
      (Hbim.default ~name ~indexing:Indexing.(Concat [ (Pc, 6); (Ghist 6, 6) ])) with
      entries = 4096;
    }

let cfg =
  {
    Pipeline.fetch_width = width;
    ghist_bits = 32;
    lhist_bits = 16;
    lhist_entries = 128;
  }

(* Same oracle driver as test_components. *)
let step pl ~pc ~kind ~taken ~target =
  let tok = Pipeline.predict pl ~pc ~max_len:1 in
  let stages = Pipeline.stages pl tok in
  let final = stages.(Array.length stages - 1) in
  let slots = Array.make width Types.no_branch in
  slots.(0) <- Types.resolved_branch ~kind ~taken ~target;
  let seq = Pipeline.fire pl tok ~slots ~packet_len:1 in
  let resolved = Types.resolved_branch ~kind ~taken ~target in
  (match final.(0).Types.o_taken with
  | Some p when p <> taken -> Pipeline.mispredict pl ~seq ~slot:0 resolved
  | Some _ | None -> Pipeline.resolve pl ~seq ~slot:0 resolved);
  Pipeline.commit pl;
  final.(0)

let accuracy_on_pattern topo ~pattern ~rounds ~warmup =
  let pl = Pipeline.create cfg topo in
  let correct = ref 0 and total = ref 0 in
  for round = 1 to rounds do
    List.iter
      (fun taken ->
        let op = step pl ~pc:0x900 ~kind:Types.Cond ~taken ~target:0x980 in
        if round > warmup then begin
          incr total;
          if op.Types.o_taken = Some taken then incr correct
        end)
      pattern
  done;
  float_of_int !correct /. float_of_int !total

let pattern_test name make_component =
  Alcotest.test_case name `Quick (fun () ->
      let acc =
        accuracy_on_pattern (Topology.node (make_component ())) ~pattern:[ true; true; false ]
          ~rounds:300 ~warmup:100
      in
      check Alcotest.bool (Printf.sprintf "%s learns TTN (%.2f)" name acc) true (acc > 0.9))

let test_gselect_concatenation_distinct () =
  (* GSelect with 0 history bits degenerates to bimodal; with history bits
     it must beat bimodal on the TTN pattern *)
  let acc_hist =
    accuracy_on_pattern
      (Topology.node (gselect ~name:"GSEL"))
      ~pattern:[ true; true; false ] ~rounds:300 ~warmup:100
  in
  check Alcotest.bool "learns pattern" true (acc_hist > 0.9)

let test_yags_exception_cache () =
  (* one strongly-taken branch plus one history-dependent branch aliasing
     the same choice entry: the exception caches must separate them *)
  let yags = Yags.make (Yags.default ~name:"YAGS") in
  let pl = Pipeline.create cfg (Topology.node yags) in
  let correct = ref 0 and total = ref 0 in
  for round = 1 to 400 do
    List.iter
      (fun taken ->
        let op = step pl ~pc:0xA00 ~kind:Types.Cond ~taken ~target:0xA80 in
        if round > 150 then begin
          incr total;
          if op.Types.o_taken = Some taken then incr correct
        end)
      [ true; true; false ]
  done;
  let acc = float_of_int !correct /. float_of_int !total in
  check Alcotest.bool (Printf.sprintf "yags TTN %.2f" acc) true (acc > 0.9)

let test_perceptron_linearly_separable () =
  (* taken iff history bit 0 (last outcome): perfectly linearly separable,
     the perceptron must converge; the pattern alternates T/N *)
  let perceptron = Perceptron.make (Perceptron.default ~name:"PERC") in
  let acc =
    accuracy_on_pattern (Topology.node perceptron) ~pattern:[ true; false ] ~rounds:400
      ~warmup:150
  in
  check Alcotest.bool (Printf.sprintf "alternation %.2f" acc) true (acc > 0.95)

let test_statistical_corrector_inverts () =
  (* base predictor always says taken; the branch is always not-taken: the
     corrector must learn to invert *)
  let base = Static_pred.always ~name:"AT" ~taken:true ~fetch_width:width () in
  let sc = Statistical_corrector.make (Statistical_corrector.default ~name:"SC") in
  let topo = Topology.over sc (Topology.node base) in
  let pl = Pipeline.create cfg topo in
  let last = ref None in
  for _ = 1 to 200 do
    let op = step pl ~pc:0xB00 ~kind:Types.Cond ~taken:false ~target:0 in
    last := op.Types.o_taken
  done;
  check Alcotest.(option bool) "inverted to not-taken" (Some false) !last

let test_gehl_learns_pattern () =
  let acc =
    accuracy_on_pattern
      (Topology.node (Gehl.make (Gehl.default ~name:"GEHL")))
      ~pattern:[ true; true; false ] ~rounds:400 ~warmup:150
  in
  check Alcotest.bool (Printf.sprintf "gehl TTN %.2f" acc) true (acc > 0.9)

let test_gehl_threshold_keeps_counters_bounded () =
  (* long unidirectional training must not wrap the signed counters *)
  let c = Gehl.make (Gehl.default ~name:"GEHL") in
  let pl = Pipeline.create cfg (Topology.node c) in
  for _ = 1 to 1000 do
    ignore (step pl ~pc:0x940 ~kind:Types.Cond ~taken:true ~target:0x9C0)
  done;
  let op = step pl ~pc:0x940 ~kind:Types.Cond ~taken:true ~target:0x9C0 in
  check Alcotest.(option bool) "still predicts taken" (Some true) op.Types.o_taken

let test_ittage_learns_correlated_targets () =
  (* an indirect branch whose target is determined by the direction of the
     preceding conditional branch: a last-target BTB can never exceed ~50%,
     ITTAGE separates the two targets through global history *)
  let ittage = Ittage.make (Ittage.default ~name:"ITTAGE") in
  let btb = Btb.make (Btb.default ~name:"BTB") in
  let pl = Pipeline.create cfg (Topology.over ittage (Topology.node btb)) in
  let correct = ref 0 and total = ref 0 in
  let flip = ref false in
  for round = 1 to 400 do
    flip := not !flip;
    let taken = !flip in
    ignore (step pl ~pc:0xC00 ~kind:Types.Cond ~taken ~target:0xC80);
    let target = if taken then 0xD00 else 0xE00 in
    let tok = Pipeline.predict pl ~pc:0xC40 ~max_len:1 in
    let stages = Pipeline.stages pl tok in
    let final = stages.(Array.length stages - 1) in
    let slots = Array.make width Types.no_branch in
    slots.(0) <- Types.resolved_branch ~kind:Types.Ind ~taken:true ~target;
    let seq = Pipeline.fire pl tok ~slots ~packet_len:1 in
    let resolved = Types.resolved_branch ~kind:Types.Ind ~taken:true ~target in
    let predicted = final.(0).Types.o_target in
    if round > 150 then begin
      incr total;
      if predicted = Some target then incr correct
    end;
    if predicted = Some target then Pipeline.resolve pl ~seq ~slot:0 resolved
    else Pipeline.mispredict pl ~seq ~slot:0 resolved;
    Pipeline.commit pl
  done;
  let acc = float_of_int !correct /. float_of_int !total in
  check Alcotest.bool (Printf.sprintf "ittage targets %.2f" acc) true (acc > 0.9)

let test_ittage_silent_without_indirects () =
  let ittage = Ittage.make (Ittage.default ~name:"ITTAGE") in
  let pl = Pipeline.create cfg (Topology.node ittage) in
  (* conditional branches never train it *)
  for _ = 1 to 50 do
    ignore (step pl ~pc:0xF00 ~kind:Types.Cond ~taken:true ~target:0xF80)
  done;
  let op = step pl ~pc:0xF00 ~kind:Types.Cond ~taken:true ~target:0xF80 in
  check Alcotest.(option bool) "no opinion" None op.Types.o_branch

let test_static_always () =
  let c = Static_pred.always ~name:"AT" ~taken:true ~fetch_width:width () in
  let out = Row.create ~width in
  c.Component.predict
    (Context.make ~pc:0 ~fetch_width:width ~ghist:(Bits.zero 8)
       ~lhists:(Array.make width (Bits.zero 4)) ())
    ~pred_in:[| Row.create ~width |] ~out ~meta:(Bits.zero 0);
  check Alcotest.int "no metadata" 0 c.Component.meta_bits;
  Array.iter
    (fun op -> check Alcotest.(option bool) "taken" (Some true) op.Types.o_taken)
    (Row.to_prediction out)

let test_static_btfn () =
  let c = Static_pred.btfn ~name:"BTFN" ~fetch_width:width () in
  let base = Types.no_prediction ~width in
  base.(0) <- { Types.empty_opinion with o_kind = Some Types.Cond; o_target = Some 0x10 };
  base.(1) <- { Types.empty_opinion with o_kind = Some Types.Cond; o_target = Some 0x5000 };
  let ctx =
    Context.make ~pc:0x1000 ~fetch_width:width ~ghist:(Bits.zero 8)
      ~lhists:(Array.make width (Bits.zero 4)) ()
  in
  let out = Row.create ~width in
  c.Component.predict ctx ~pred_in:[| Row.of_prediction base |] ~out ~meta:(Bits.zero 0);
  let pred = Row.to_prediction out in
  check Alcotest.(option bool) "backward taken" (Some true) pred.(0).Types.o_taken;
  check Alcotest.(option bool) "forward not taken" (Some false) pred.(1).Types.o_taken;
  check Alcotest.(option bool) "no target, no opinion" None pred.(2).Types.o_taken

let test_extension_storage_positive () =
  List.iter
    (fun (name, c) ->
      check Alcotest.bool (name ^ " storage") true
        (Storage.total_bits c.Component.storage > 0))
    [
      ("gshare", gshare ~name:"G");
      ("gselect", gselect ~name:"GS");
      ("yags", Yags.make (Yags.default ~name:"Y"));
      ("perceptron", Perceptron.make (Perceptron.default ~name:"P"));
      ("sc", Statistical_corrector.make (Statistical_corrector.default ~name:"S"));
      ("gehl", Gehl.make (Gehl.default ~name:"GE"));
      ("ittage", Ittage.make (Ittage.default ~name:"IT"));
    ]

let () =
  Alcotest.run "cobra_extensions"
    [
      ( "learning",
        [
          pattern_test "gshare" (fun () -> gshare ~name:"GSHARE");
          Alcotest.test_case "gselect" `Quick test_gselect_concatenation_distinct;
          Alcotest.test_case "yags" `Quick test_yags_exception_cache;
          Alcotest.test_case "perceptron" `Quick test_perceptron_linearly_separable;
          Alcotest.test_case "statistical corrector" `Quick test_statistical_corrector_inverts;
          Alcotest.test_case "gehl pattern" `Quick test_gehl_learns_pattern;
          Alcotest.test_case "gehl saturation" `Quick test_gehl_threshold_keeps_counters_bounded;
          Alcotest.test_case "ittage correlated targets" `Quick
            test_ittage_learns_correlated_targets;
          Alcotest.test_case "ittage ignores conds" `Quick test_ittage_silent_without_indirects;
        ] );
      ( "static",
        [
          Alcotest.test_case "always" `Quick test_static_always;
          Alcotest.test_case "btfn" `Quick test_static_btfn;
        ] );
      ( "storage",
        [ Alcotest.test_case "positive" `Quick test_extension_storage_positive ] );
    ]
