(* The differential conformance kit as a tier-1 gate: golden-model lockstep
   fuzzing, storage accounting, twin-design differentials and the live-slot
   and repair-restores-state metamorphic checks, plus direct behavioural
   coverage (through the golden instances) for the components that
   previously had no test of their own. COBRA_SEED replays any failure. *)

open Cobra
module Bits = Cobra_util.Bits
module Golden = Cobra_conformance.Golden
module Fuzz = Cobra_conformance.Fuzz
module Crosscheck = Cobra_conformance.Crosscheck
module Designs = Cobra_eval.Designs

let seed =
  match Sys.getenv_opt "COBRA_SEED" with
  | Some s -> ( match int_of_string_opt (String.trim s) with Some n -> n | None -> 0x0b5a)
  | None -> 0x0b5a

let check = Alcotest.check
let width = 4

let assert_verdict (v : Crosscheck.verdict) =
  if not v.Crosscheck.v_pass then
    Alcotest.failf "%s/%s: %s" v.Crosscheck.v_check v.Crosscheck.v_subject
      v.Crosscheck.v_detail

(* --- kit-level checks ------------------------------------------------------- *)

let test_lockstep packed () = assert_verdict (Crosscheck.lockstep ~length:150 ~seed packed)
let test_live_slots packed () = assert_verdict (Crosscheck.live_slots ~length:150 ~seed packed)
let test_storage packed () = assert_verdict (Crosscheck.storage_accounting packed)
let test_twin design () = assert_verdict (Crosscheck.replay_twin ~length:250 ~seed design)

let test_repair_restore design () =
  assert_verdict (Crosscheck.repair_restore ~length:250 ~seed design)

let test_table1_pins () = List.iter assert_verdict (Crosscheck.table1_pins ())

(* --- direct behavioural coverage via golden instances ------------------------ *)

let find_packed name =
  List.find (fun p -> String.equal (Golden.packed_name p) name) (Golden.zoo ())

let ctx ?(pc = 0x4000) ?(ghist = Bits.zero 64) () =
  Context.make ~pc ~fetch_width:width ~ghist
    ~lhists:(Array.init width (fun _ -> Bits.zero 16))
    ~phist:(Bits.zero 16) ()

let no_pred_in (inst : Golden.inst) =
  List.init inst.Golden.i_arity (fun _ -> Types.no_prediction ~width)

let predict_slot0 ?pc ?ghist ?pred_in (inst : Golden.inst) =
  let c = ctx ?pc ?ghist () in
  let pred_in = Option.value pred_in ~default:(no_pred_in inst) in
  let p, _ = inst.Golden.i_predict c ~pred_in in
  p.(0)

let train ?pc ?ghist ?pred_in ?(kind = Types.Cond) ?(target = 0x4100)
    (inst : Golden.inst) ~taken n =
  for _ = 1 to n do
    let c = ctx ?pc ?ghist () in
    let pred_in = Option.value pred_in ~default:(no_pred_in inst) in
    let _, meta = inst.Golden.i_predict c ~pred_in in
    let slots = Array.make width Types.no_branch in
    slots.(0) <- Types.resolved_branch ~kind ~taken ~target;
    let ev = { Component.ctx = c; meta; slots; culprit = None } in
    inst.Golden.i_fire ev;
    inst.Golden.i_update ev
  done

let assert_invariant (inst : Golden.inst) =
  match inst.Golden.i_invariant () with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s invariant: %s" inst.Golden.i_name e

let taken_of name opinion =
  match opinion.Types.o_taken with
  | Some t -> t
  | None -> Alcotest.failf "%s: expected a direction opinion" name

(* Saturation: training far past the counter range must clamp (the
   invariant checks every reachable cell) and leave a firm direction. *)
let test_saturation name ~rounds () =
  let inst = Golden.instantiate (find_packed name) in
  train inst ~taken:true rounds;
  assert_invariant inst;
  check Alcotest.bool (name ^ " saturated taken") true
    (taken_of name (predict_slot0 inst));
  train inst ~taken:false (2 * rounds);
  assert_invariant inst;
  check Alcotest.bool (name ^ " saturated not-taken") false
    (taken_of name (predict_slot0 inst))

(* Aliasing/history separation: same PC, two global histories with opposite
   outcomes — history-indexed components must learn both. *)
let test_history_separation name () =
  let inst = Golden.instantiate (find_packed name) in
  let ga = Bits.of_int ~width:64 0b10110101 in
  let gb = Bits.of_int ~width:64 0b01001010 in
  for _ = 1 to 40 do
    train inst ~ghist:ga ~taken:true 1;
    train inst ~ghist:gb ~taken:false 1
  done;
  assert_invariant inst;
  check Alcotest.bool (name ^ " history A taken") true
    (taken_of name (predict_slot0 ~ghist:ga inst));
  check Alcotest.bool (name ^ " history B not-taken") false
    (taken_of name (predict_slot0 ~ghist:gb inst))

(* Repair round-trip: predict, speculatively fire, then repair — the
   observable state must be exactly what it was before the excursion. *)
let test_repair_roundtrip name () =
  let inst = Golden.instantiate (find_packed name) in
  train inst ~taken:true 20;
  let before = predict_slot0 inst in
  let restore = inst.Golden.i_snapshot () in
  let c = ctx () in
  let _, meta = inst.Golden.i_predict c ~pred_in:(no_pred_in inst) in
  let slots = Array.make width Types.no_branch in
  slots.(0) <- Types.resolved_branch ~kind:Types.Cond ~taken:true ~target:0x4100;
  let ev = { Component.ctx = c; meta; slots; culprit = None } in
  inst.Golden.i_fire ev;
  inst.Golden.i_repair ev;
  let after = predict_slot0 inst in
  if not (Types.equal_prediction [| before |] [| after |]) then
    Alcotest.failf "%s: fire+repair changed the observable state" name;
  restore ();
  let restored = predict_slot0 inst in
  if not (Types.equal_prediction [| before |] [| restored |]) then
    Alcotest.failf "%s: snapshot restore changed the observable state" name

(* ITTAGE: an indirect predictor — saturation is target confidence. *)
let test_ittage_targets () =
  let inst = Golden.instantiate (find_packed "zITTAGE") in
  train inst ~kind:Types.Ind ~target:0x9000 ~taken:true 30;
  assert_invariant inst;
  (match (predict_slot0 inst).Types.o_target with
  | Some t -> check Alcotest.int "ittage learned target" 0x9000 t
  | None -> Alcotest.fail "ittage: no target opinion after training");
  (* retarget: confidence must decay and the entry must follow *)
  train inst ~kind:Types.Ind ~target:0xa000 ~taken:true 60;
  assert_invariant inst;
  match (predict_slot0 inst).Types.o_target with
  | Some t -> check Alcotest.int "ittage retargeted" 0xa000 t
  | None -> Alcotest.fail "ittage: no target opinion after retraining"

let test_ittage_repair_roundtrip () =
  let inst = Golden.instantiate (find_packed "zITTAGE") in
  train inst ~kind:Types.Ind ~target:0x9000 ~taken:true 20;
  let before = (predict_slot0 inst).Types.o_target in
  let c = ctx () in
  let _, meta = inst.Golden.i_predict c ~pred_in:(no_pred_in inst) in
  let slots = Array.make width Types.no_branch in
  slots.(0) <- Types.resolved_branch ~kind:Types.Ind ~taken:true ~target:0x9000;
  let ev = { Component.ctx = c; meta; slots; culprit = None } in
  inst.Golden.i_fire ev;
  inst.Golden.i_repair ev;
  check Alcotest.(option int) "ittage fire+repair is invisible" before
    (predict_slot0 inst).Types.o_target

(* Statistical corrector: with a firmly wrong incoming prediction it must
   learn to invert it, and only for that incoming direction. *)
let test_sc_inverts () =
  let inst = Golden.instantiate (find_packed "zSC") in
  let incoming taken =
    [ Array.init width (fun _ -> { Types.empty_opinion with o_taken = Some taken }) ]
  in
  train inst ~pred_in:(incoming true) ~taken:false 60;
  assert_invariant inst;
  check Alcotest.bool "sc inverts a wrong taken prediction" false
    (taken_of "zSC" (predict_slot0 ~pred_in:(incoming true) inst))

let test_sc_repair_roundtrip () =
  let inst = Golden.instantiate (find_packed "zSC") in
  let incoming = [ Array.init width (fun _ -> { Types.empty_opinion with o_taken = Some true }) ] in
  train inst ~pred_in:incoming ~taken:false 30;
  let before = predict_slot0 ~pred_in:incoming inst in
  let c = ctx () in
  let _, meta = inst.Golden.i_predict c ~pred_in:incoming in
  let slots = Array.make width Types.no_branch in
  slots.(0) <- Types.resolved_branch ~kind:Types.Cond ~taken:true ~target:0x4100;
  let ev = { Component.ctx = c; meta; slots; culprit = None } in
  inst.Golden.i_fire ev;
  inst.Golden.i_repair ev;
  if not (Types.equal_prediction [| before |] [| predict_slot0 ~pred_in:incoming inst |])
  then Alcotest.fail "zSC: fire+repair changed the observable state"

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* Zero-width tables: a 0-bit index addresses one entry and a 0-bit tag
   matches any valid entry, in every tagged component, uniform or mixed with
   wider tables. *)
let test_zero_width () =
  let spec h i t = { Cobra_components.Tagged.history_length = h; index_bits = i; tag_bits = t } in
  let tage tables = Golden.tage { (Cobra_components.Tage.default ~name:"zTAGE0") with tables } in
  let ittage tables =
    Golden.ittage { (Cobra_components.Ittage.default ~name:"zITTAGE0") with tables }
  in
  let gtag entries tag_bits =
    Golden.gtag
      { (Cobra_components.Gtag.default ~name:"zGTAG00") with entries; tag_bits; history_length = 6 }
  in
  List.iter
    (fun packed ->
      assert_verdict (Crosscheck.lockstep ~length:60 ~seed packed);
      assert_verdict (Crosscheck.live_slots ~length:30 ~seed packed))
    [
      tage [ spec 4 0 0 ];
      tage [ spec 4 3 0; spec 8 3 0 ];
      tage [ spec 4 0 5; spec 8 0 5 ];
      tage [ spec 2 0 0; spec 6 4 3; spec 12 2 0 ];
      ittage [ spec 2 0 0; spec 6 3 0 ];
      gtag 1 0;
      gtag 16 0;
    ]

(* A component that raises fails its checks at the packet or branch in
   flight, with the replay line, instead of escaping to the caller of
   [run_all]. The design-level checks see it through a one-component design
   that keeps GShare's name, so its golden twin still elaborates. *)
let test_raising_component () =
  let (Golden.P p) = Golden.static_always ~name:"zRAISE" ~taken:true ~fetch_width:width in
  let make_real () =
    Component.make ~name:"zRAISE" ~family:Component.Static ~fetch_width:width ~latency:1
      ~meta_bits:0
      ~storage:Storage.zero
      ~predict:(fun _ ~pred_in:_ ~out:_ ~meta:_ -> failwith "zRAISE refuses")
      ()
  in
  let packed = Golden.P { p with make_real } in
  let design =
    { Designs.gshare_only with Designs.make = (fun () -> Topology.node (make_real ())) }
  in
  let expect step (v : Crosscheck.verdict) =
    let name = v.Crosscheck.v_check in
    check Alcotest.bool (name ^ " fails") false v.Crosscheck.v_pass;
    List.iter
      (fun needle ->
        if not (contains v.Crosscheck.v_detail needle) then
          Alcotest.failf "%s: %S misses %S" name v.Crosscheck.v_detail needle)
      [
        "zRAISE refuses";
        "shape=" ^ Fuzz.shape_name (List.hd Fuzz.all_shapes);
        step ^ "=0/20";
        Printf.sprintf "seed=%d" seed;
        Printf.sprintf "cobra conform --seed %d --shape" seed;
      ]
  in
  List.iter (expect "packet")
    [ Crosscheck.lockstep ~length:20 ~seed packed; Crosscheck.live_slots ~length:20 ~seed packed ];
  List.iter (expect "branch")
    [
      Crosscheck.compiled_zoo ~length:20 ~seed packed;
      Crosscheck.replay_twin ~length:20 ~seed design;
      Crosscheck.repair_restore ~length:20 ~seed design;
      Crosscheck.snapshot_roundtrip ~length:20 ~seed design;
      Crosscheck.compiled_twin ~length:20 ~seed design;
    ]

(* Fuzzer determinism: the stream really is a pure function of the seed. *)
let test_fuzz_deterministic () =
  let sc = { Fuzz.seed; shape = Fuzz.Mixed; length = 100 } in
  let a = Fuzz.packets sc ~arity:1 ~fetch_width:width in
  let b = Fuzz.packets sc ~arity:1 ~fetch_width:width in
  List.iter2
    (fun (x : Fuzz.packet) (y : Fuzz.packet) ->
      check Alcotest.bool "same path" true (x.Fuzz.pk_path = y.Fuzz.pk_path);
      check Alcotest.bool "same slots" true (x.Fuzz.pk_slots = y.Fuzz.pk_slots);
      check Alcotest.int "same pc" x.Fuzz.pk_ctx.Context.pc y.Fuzz.pk_ctx.Context.pc)
    a b;
  let b1 = Fuzz.branches { sc with Fuzz.seed = seed + 1 } in
  let b0 = Fuzz.branches sc in
  check Alcotest.bool "different seeds differ" true (b0 <> b1)

(* Shape lookup is the CLI's parsing surface: case-insensitive, trimmed,
   and unknown names are answered with the full valid list. *)

let test_shape_of_name () =
  List.iter
    (fun shape ->
      let name = Fuzz.shape_name shape in
      check Alcotest.bool (name ^ " exact") true (Fuzz.shape_of_name name = Some shape);
      check Alcotest.bool (name ^ " upper-case") true
        (Fuzz.shape_of_name (String.uppercase_ascii name) = Some shape);
      check Alcotest.bool (name ^ " padded") true
        (Fuzz.shape_of_name ("  " ^ name ^ " ") = Some shape))
    Fuzz.all_shapes;
  check Alcotest.bool "unknown is None" true (Fuzz.shape_of_name "no-such-shape" = None);
  match Fuzz.shape_of_name_exn "no-such-shape" with
  | _ -> Alcotest.fail "shape_of_name_exn accepted garbage"
  | exception Failure msg ->
    List.iter
      (fun n ->
        if not (contains msg n) then Alcotest.failf "shape error %S misses %s" msg n)
      Fuzz.shape_names

(* The probe-derived shapes drive the whole kit through the ?shapes
   restriction — the seed-matrix CI job's code path. *)
let test_run_all_probe_shapes () =
  let shapes = [ Fuzz.Ladder; Fuzz.Alias_stress; Fuzz.Loop_scan ] in
  List.iter assert_verdict (Crosscheck.run_all ~length:100 ~shapes ~seed ())

let () =
  let zoo = Golden.zoo () in
  let lockstep_cases =
    List.map
      (fun p ->
        Alcotest.test_case (Golden.packed_name p) `Quick (test_lockstep p))
      zoo
  in
  let live_slot_cases =
    List.map
      (fun p -> Alcotest.test_case (Golden.packed_name p) `Quick (test_live_slots p))
      zoo
  in
  let storage_cases =
    List.map
      (fun p -> Alcotest.test_case (Golden.packed_name p) `Quick (test_storage p))
      zoo
  in
  let twin_cases =
    List.map
      (fun (d : Designs.t) ->
        Alcotest.test_case d.Designs.name `Quick (test_twin d))
      Designs.named
  in
  let repair_cases =
    List.map
      (fun (d : Designs.t) ->
        Alcotest.test_case d.Designs.name `Quick (test_repair_restore d))
      Designs.all
  in
  let direction_components =
    (* previously direct-test-free components, through their golden models *)
    [ ("zGEHL", 100); ("zGSELECT", 40); ("zYAGS", 40); ("zPERC", 100) ]
  in
  let coverage_cases =
    List.concat_map
      (fun (name, rounds) ->
        [
          Alcotest.test_case (name ^ " saturation") `Quick (test_saturation name ~rounds);
          Alcotest.test_case (name ^ " history separation") `Quick
            (test_history_separation name);
          Alcotest.test_case (name ^ " repair round-trip") `Quick
            (test_repair_roundtrip name);
        ])
      direction_components
    @ [
        Alcotest.test_case "zITTAGE targets" `Quick test_ittage_targets;
        Alcotest.test_case "zITTAGE repair round-trip" `Quick test_ittage_repair_roundtrip;
        Alcotest.test_case "zSC inverts" `Quick test_sc_inverts;
        Alcotest.test_case "zSC repair round-trip" `Quick test_sc_repair_roundtrip;
        Alcotest.test_case "zero-width tagged tables" `Quick test_zero_width;
      ]
  in
  Alcotest.run "conformance"
    [
      ("lockstep", lockstep_cases);
      ("live-slots", live_slot_cases);
      ("storage", storage_cases);
      ("twin", twin_cases);
      ("repair-restore", repair_cases);
      ("table1", [ Alcotest.test_case "storage pins" `Quick test_table1_pins ]);
      ("coverage", coverage_cases);
      ( "fuzz",
        [
          Alcotest.test_case "deterministic" `Quick test_fuzz_deterministic;
          Alcotest.test_case "shape lookup case-insensitive, errors list names" `Quick
            test_shape_of_name;
          Alcotest.test_case "probe shapes drive the whole kit" `Quick
            test_run_all_probe_shapes;
          Alcotest.test_case "a raising component fails its checks" `Quick
            test_raising_component;
        ] );
    ]
