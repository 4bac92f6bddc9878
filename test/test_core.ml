open Cobra
module Bits = Cobra_util.Bits
module Bitpack = Cobra_util.Bitpack

let check = Alcotest.check

(* --- helpers -------------------------------------------------------------- *)

let width = 4

(* A stub component with a fixed per-query behaviour and an event log. The
   behaviour speaks decoded predictions, in and out. *)
type log_entry = Fired | Mispredicted of int option | Repaired | Updated

let stub ?(latency = 1) ?(meta_bits = 8) ?(meta_value = 0xAB) ~name behaviour =
  let log = ref [] in
  let predict ctx ~pred_in ~out ~meta =
    let pred_in = Array.to_list (Array.map Row.to_prediction pred_in) in
    Array.iteri (Row.set out) (behaviour ctx pred_in);
    Bitpack.store ~owner:name (Bits.of_int ~width:meta_bits meta_value) ~dst:meta
  in
  let push e (_ : Component.event) = log := e :: !log in
  let component =
    Component.make ~name ~family:Component.Static ~fetch_width:width ~latency ~meta_bits
      ~storage:Storage.zero ~predict ~fire:(push Fired)
      ~mispredict:(fun ev -> log := Mispredicted ev.culprit :: !log)
      ~repair:(push Repaired) ~update:(push Updated) ()
  in
  (component, log)

let silent _ctx _pred_in = Types.no_prediction ~width

let always_taken ~target _ctx _pred_in =
  let p = Types.no_prediction ~width in
  p.(0) <- Types.full_opinion ~kind:Types.Cond ~taken:true ~target;
  p

let direction_only ~taken _ctx _pred_in =
  let p = Types.no_prediction ~width in
  p.(0) <- { Types.empty_opinion with o_taken = Some taken };
  p

let cfg =
  {
    Pipeline.fetch_width = width;
    ghist_bits = 16;
    lhist_bits = 8;
    lhist_entries = 64;
  }

let no_branch_slots = Array.make width Types.no_branch

let taken_slots ~slot ~target =
  let s = Array.make width Types.no_branch in
  s.(slot) <- Types.resolved_branch ~kind:Types.Cond ~taken:true ~target;
  s

(* --- Types ---------------------------------------------------------------- *)

let test_merge_opinion () =
  let strong = { Types.empty_opinion with o_taken = Some true } in
  let weak = Types.full_opinion ~kind:Types.Cond ~taken:false ~target:0x40 in
  let m = Types.merge_opinion ~strong ~weak in
  check Alcotest.(option bool) "strong taken wins" (Some true) m.o_taken;
  check Alcotest.(option int) "weak target flows" (Some 0x40) m.o_target;
  check Alcotest.(option bool) "weak branch flows" (Some true) m.o_branch

(* The fetch decision a stage row makes, read the way the core reads it. *)
let next_fetch (row : Row.t) ~max_len =
  let i = Row.taken_slot row ~max_len in
  ( (if i < 0 then None else Some i),
    Row.packet_len row ~max_len,
    if i < 0 then None else Some (Row.target row i) )

let test_next_fetch () =
  let p = Row.create ~width in
  Row.set p 2 (Types.full_opinion ~kind:Types.Cond ~taken:true ~target:0x100);
  let taken_slot, packet_len, next_pc = next_fetch p ~max_len:4 in
  check Alcotest.(option int) "taken slot" (Some 2) taken_slot;
  check Alcotest.int "packet len" 3 packet_len;
  check Alcotest.(option int) "target" (Some 0x100) next_pc

let test_next_fetch_no_target () =
  (* a taken opinion without a target cannot redirect *)
  let p = Row.create ~width in
  Row.set p 0 { Types.empty_opinion with o_branch = Some true; o_taken = Some true };
  let _, packet_len, next_pc = next_fetch p ~max_len:4 in
  check Alcotest.(option int) "no redirect" None next_pc;
  check Alcotest.int "full packet" 4 packet_len

let direction_bits row ~packet_len =
  let out = Array.make width false in
  List.init (Row.direction_bits_into row ~packet_len out) (Array.get out)

let test_direction_bits () =
  let p = Row.create ~width in
  Row.set p 0 (Types.direction_opinion ~taken:false);
  Row.set p 1 (Types.full_opinion ~kind:Types.Jump ~taken:true ~target:0x80);
  Row.set p 2 (Types.full_opinion ~kind:Types.Cond ~taken:true ~target:0x90);
  Row.set p 3 (Types.direction_opinion ~taken:true);
  (* the taken jump at slot 1 ends the packet: only slot 0's bit is pushed,
     and the jump itself contributes no conditional-history bit *)
  check Alcotest.(list bool) "dir bits" [ false ] (direction_bits p ~packet_len:4);
  (* without the jump, bits accumulate until the taken cond branch *)
  Row.set p 1 Types.empty_opinion;
  check Alcotest.(list bool) "dir bits stop at taken cond" [ false; true ]
    (direction_bits p ~packet_len:4)

(* --- Row: the int encoding of opinions ------------------------------------- *)

(* Every opinion shape: each field known or not, every kind, and targets
   that a sentinel encoding would get wrong (0, -1, min_int, max_int)
   beside ordinary ones. *)
let opinion_gen =
  let open QCheck.Gen in
  let opt g = oneof [ return None; map Option.some g ] in
  let target =
    oneof [ oneofl [ 0; -1; min_int; max_int; 0x40 ]; int; map (fun k -> 4 * k) (int_bound 4096) ]
  in
  map
    (fun (o_branch, o_kind, o_taken, o_target) -> { Types.o_branch; o_kind; o_taken; o_target })
    (quad (opt bool) (opt (oneofl [ Types.Cond; Types.Jump; Types.Call; Types.Ret; Types.Ind ]))
       (opt bool) (opt target))

let show_opinion op = Format.asprintf "%a" Types.pp_prediction [| op |]

let prediction_arb =
  QCheck.make
    ~print:(fun p -> Format.asprintf "%a" Types.pp_prediction p)
    QCheck.Gen.(int_range 1 8 >>= fun w -> array_size (return w) opinion_gen)

let prop_row_roundtrip =
  QCheck.Test.make ~name:"row encodes and decodes every opinion" ~count:500 prediction_arb
    (fun p ->
      let r = Row.of_prediction p in
      Array.iteri
        (fun i (op : Types.opinion) ->
          let back = Row.get r i in
          if not (Types.equal_opinion op back) then
            QCheck.Test.fail_reportf "slot %d: %s decodes as %s" i (show_opinion op)
              (show_opinion back);
          let readers =
            [
              ("branch", Row.branch r i, op.o_branch = Some true);
              ("taken_known", Row.taken_known r i, op.o_taken <> None);
              ("taken", Row.taken r i, op.o_taken = Some true);
              ("kind_known", Row.kind_known r i, op.o_kind <> None);
              ("unconditional", Row.unconditional r i, Types.unconditional_in p i);
              ("target_known", Row.target_known r i, op.o_target <> None);
            ]
          in
          List.iter
            (fun (name, got, want) ->
              if got <> want then
                QCheck.Test.fail_reportf "slot %d of %s: Row.%s = %b" i (show_opinion op) name
                  got)
            readers)
        p;
      Types.equal_prediction p (Row.to_prediction r) && Row.equal r (Row.of_prediction p))

let prop_row_merge =
  QCheck.Test.make ~name:"row merge decodes to merge_opinion" ~count:500
    (QCheck.pair prediction_arb prediction_arb) (fun (strong, weak) ->
      let w = min (Array.length strong) (Array.length weak) in
      let strong = Array.sub strong 0 w and weak = Array.sub weak 0 w in
      let want = Types.merge ~strong ~weak in
      let dst = Row.create ~width:w and weak_row = Row.of_prediction weak in
      Row.merge_into ~strong:(Row.of_prediction strong) ~weak:weak_row ~dst ~len:w;
      (* in place over the weak row, as a register may be *)
      Row.merge_into ~strong:(Row.of_prediction strong) ~weak:weak_row ~dst:weak_row ~len:w;
      Types.equal_prediction (Row.to_prediction dst) want
      && Types.equal_prediction (Row.to_prediction weak_row) want)

(* --- Topology ------------------------------------------------------------- *)

let test_topology_expression () =
  let a, _ = stub ~latency:3 ~name:"LOOP" silent in
  let b, _ = stub ~latency:3 ~name:"TAGE" silent in
  let c, _ = stub ~latency:2 ~name:"BIM" silent in
  let topo = Topology.(over a (over b (node c))) in
  check Alcotest.string "expression" "LOOP_3 > TAGE_3 > BIM_2" (Topology.to_expression topo);
  check Alcotest.int "depth" 3 (Topology.max_latency topo)

let contains_substring haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec loop i = i + nn <= nh && (String.sub haystack i nn = needle || loop (i + 1)) in
  loop 0

let test_topology_duplicate_names () =
  let a, _ = stub ~name:"X" silent in
  let b, _ = stub ~name:"X" silent in
  match Topology.validate Topology.(over a (node b)) with
  | Error msg ->
    check Alcotest.bool "mentions dup" true (contains_substring msg "duplicate")
  | Ok () -> Alcotest.fail "expected duplicate-name error"

(* --- Composer per-stage semantics (the paper's Section IV-A example) ------ *)

(* Build the two orderings of {uBTB_1, PHT_2, LOOP_2} and check the staged
   composites the paper describes. *)
let staged_composites ~ubtb_hits ~pht ~loop_pred order =
  let ubtb, _ =
    stub ~latency:1 ~name:"UBTB" (fun _ _ ->
        if ubtb_hits then
          let p = Types.no_prediction ~width in
          p.(0) <- Types.full_opinion ~kind:Types.Cond ~taken:true ~target:0x111;
          p
        else Types.no_prediction ~width)
  in
  let pht_c, _ =
    stub ~latency:2 ~name:"PHT" (fun _ _ ->
        match pht with
        | None -> Types.no_prediction ~width
        | Some taken ->
          let p = Types.no_prediction ~width in
          p.(0) <- { Types.empty_opinion with o_taken = Some taken };
          p)
  in
  let loop_c, _ =
    stub ~latency:2 ~name:"LOOP" (fun _ _ ->
        match loop_pred with
        | None -> Types.no_prediction ~width
        | Some taken ->
          let p = Types.no_prediction ~width in
          p.(0) <- { Types.empty_opinion with o_taken = Some taken };
          p)
  in
  let topo =
    match order with
    | `Loop_over_pht -> Topology.(over loop_c (over pht_c (node ubtb)))
    | `Ubtb_over_pht -> Topology.(over ubtb (over pht_c (node loop_c)))
  in
  let pl = Pipeline.create cfg topo in
  let tok = Pipeline.predict pl ~pc:0x1000 ~max_len:4 in
  Pipeline.stages pl tok

let test_topology_loop_overrides () =
  (* LOOP_2 > PHT_2 > UBTB_1: at stage 1 only the uBTB speaks; at stage 2
     the loop predictor overrides the PHT which overrides the uBTB. *)
  let stages =
    staged_composites ~ubtb_hits:true ~pht:(Some false) ~loop_pred:(Some true)
      `Loop_over_pht
  in
  check Alcotest.(option bool) "stage1 = uBTB taken" (Some true) stages.(0).(0).o_taken;
  check Alcotest.(option bool) "stage2 = LOOP wins" (Some true) stages.(1).(0).o_taken;
  let stages2 =
    staged_composites ~ubtb_hits:true ~pht:(Some false) ~loop_pred:None `Loop_over_pht
  in
  check Alcotest.(option bool) "stage2 = PHT overrides uBTB" (Some false)
    stages2.(1).(0).o_taken;
  let stages3 =
    staged_composites ~ubtb_hits:true ~pht:None ~loop_pred:None `Loop_over_pht
  in
  check Alcotest.(option bool) "stage2 carries uBTB when others silent" (Some true)
    stages3.(1).(0).o_taken

let test_topology_ubtb_strongest () =
  (* UBTB_1 > PHT_2 > LOOP_2: a uBTB hit is final in both cycles. *)
  let stages =
    staged_composites ~ubtb_hits:true ~pht:(Some false) ~loop_pred:(Some false)
      `Ubtb_over_pht
  in
  check Alcotest.(option bool) "stage2 keeps uBTB" (Some true) stages.(1).(0).o_taken;
  (* when the uBTB misses, the PHT wins over the loop predictor *)
  let stages2 =
    staged_composites ~ubtb_hits:false ~pht:(Some true) ~loop_pred:(Some false)
      `Ubtb_over_pht
  in
  check Alcotest.(option bool) "stage1 empty" None stages2.(0).(0).o_taken;
  check Alcotest.(option bool) "stage2 PHT over LOOP" (Some true) stages2.(1).(0).o_taken

let test_arbitrate_default_path () =
  (* TOURNEY_3 > [GHT_2, LHT_2]: before the selector responds, the first
     sub-topology provides the composite. *)
  let ght, _ = stub ~latency:2 ~name:"GHT" (direction_only ~taken:true) in
  let lht, _ = stub ~latency:2 ~name:"LHT" (direction_only ~taken:false) in
  let sel, _ =
    stub ~latency:3 ~name:"TOURNEY" (fun _ pred_in ->
        match pred_in with
        | [ _g; l ] ->
          (* always choose the second input *)
          let p = Types.no_prediction ~width in
          p.(0) <- { Types.empty_opinion with o_taken = l.(0).Types.o_taken };
          p
        | _ -> Alcotest.fail "selector expected two inputs")
  in
  let topo = Topology.arbitrate sel [ Topology.node ght; Topology.node lht ] in
  let pl = Pipeline.create cfg topo in
  let tok = Pipeline.predict pl ~pc:0x2000 ~max_len:4 in
  let stages = Pipeline.stages pl tok in
  check Alcotest.(option bool) "stage2 = default (GHT)" (Some true) stages.(1).(0).o_taken;
  check Alcotest.(option bool) "stage3 = selector choice (LHT)" (Some false)
    stages.(2).(0).o_taken

let test_arbitrate_validation () =
  (* selector may not consume predict_in that arrives after its own latency *)
  let slow, _ = stub ~latency:3 ~name:"SLOW" silent in
  let fast, _ = stub ~latency:1 ~name:"FAST" silent in
  let sel, _ = stub ~latency:2 ~name:"SEL" silent in
  let topo = Topology.arbitrate sel [ Topology.node slow; Topology.node fast ] in
  match Topology.validate topo with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "expected latency violation"

(* --- Pipeline protocol ---------------------------------------------------- *)

let simple_pipeline () =
  let comp, log = stub ~latency:1 ~name:"P" (always_taken ~target:0x500) in
  (Pipeline.create cfg (Topology.node comp), log)

let test_metadata_roundtrip () =
  let comp, _ = stub ~latency:1 ~meta_bits:12 ~meta_value:0x5A5 ~name:"M" silent in
  let seen = ref [] in
  let spy =
    Component.make ~name:"SPY" ~family:Component.Static ~fetch_width:width ~latency:1
      ~meta_bits:4
      ~storage:Storage.zero
      ~predict:(fun _ ~pred_in:_ ~out:_ ~meta ->
        Bitpack.store ~owner:"SPY" (Bits.of_int ~width:4 0x9) ~dst:meta)
      ~update:(fun ev -> seen := Bits.to_int ev.meta :: !seen)
      ()
  in
  let pl = Pipeline.create cfg Topology.(over comp (node spy)) in
  let tok = Pipeline.predict pl ~pc:0x40 ~max_len:4 in
  ignore (Pipeline.fire pl tok ~slots:no_branch_slots ~packet_len:4);
  Pipeline.commit pl;
  check Alcotest.(list int) "spy got its own meta back" [ 0x9 ] !seen

let test_fire_and_commit_events () =
  let pl, log = simple_pipeline () in
  let tok = Pipeline.predict pl ~pc:0x40 ~max_len:4 in
  let seq = Pipeline.fire pl tok ~slots:(taken_slots ~slot:0 ~target:0x500) ~packet_len:1 in
  Pipeline.resolve pl ~seq ~slot:0 (Types.resolved_branch ~kind:Types.Cond ~taken:true ~target:0x500);
  Pipeline.commit pl;
  check Alcotest.bool "fire then update" true
    (match List.rev !log with [ Fired; Updated ] -> true | _ -> false)

let test_ghist_speculative_update () =
  let pl, _ = simple_pipeline () in
  let tok = Pipeline.predict pl ~pc:0x40 ~max_len:4 in
  (* the stage-1 prediction is taken at slot 0 -> one '1' bit pushed *)
  check Alcotest.(list bool) "applied bits" [ true ] (Pipeline.applied_dir_bits pl tok);
  check Alcotest.int "ghist lsb set" 1 (Bits.to_int (Bits.extract (Pipeline.ghist_value pl) ~lo:0 ~len:1))

let test_squash_restores_ghist () =
  let pl, _ = simple_pipeline () in
  let before = Pipeline.ghist_value pl in
  let tok = Pipeline.predict pl ~pc:0x40 ~max_len:4 in
  let _tok2 = Pipeline.predict pl ~pc:0x80 ~max_len:4 in
  Pipeline.squash_from pl tok;
  check Alcotest.bool "ghist restored" true (Bits.equal before (Pipeline.ghist_value pl));
  check Alcotest.(list int) "no pending" [] (List.map (fun _ -> 0) (Pipeline.pending_tokens pl))

let test_revise_dir_bits () =
  let pl, _ = simple_pipeline () in
  let tok = Pipeline.predict pl ~pc:0x40 ~max_len:4 in
  Pipeline.revise_dir_bits pl tok [ false; true ];
  check Alcotest.(list bool) "revised" [ false; true ] (Pipeline.applied_dir_bits pl tok);
  let g = Pipeline.ghist_value pl in
  check Alcotest.int "ghist low bits = 01b reversed push" 0b01
    (Bits.extract_int g ~lo:0 ~len:2)

let test_mispredict_repair () =
  let pl, log = simple_pipeline () in
  (* fire three packets, then mispredict the first *)
  let fire_one pc =
    let tok = Pipeline.predict pl ~pc ~max_len:4 in
    Pipeline.fire pl tok ~slots:(taken_slots ~slot:0 ~target:0x500) ~packet_len:1
  in
  let s0 = fire_one 0x40 in
  let _s1 = fire_one 0x500 in
  let _s2 = fire_one 0x500 in
  log := [];
  Pipeline.mispredict pl ~seq:s0 ~slot:0
    (Types.resolved_branch ~kind:Types.Cond ~taken:false ~target:0);
  (* repairs for the two younger packets first, then the culprit's fast
     mispredict update (last, so its corrections are final) *)
  let events = List.rev !log in
  check Alcotest.bool "repairs then mispredict" true
    (match events with
    | [ Repaired; Repaired; Mispredicted (Some 0) ] -> true
    | _ -> false);
  check Alcotest.int "younger squashed" 1 (Pipeline.inflight pl);
  (* the corrected not-taken bit is now the youngest history bit *)
  check Alcotest.int "ghist corrected" 0
    (Bits.extract_int (Pipeline.ghist_value pl) ~lo:0 ~len:1)

let test_mispredict_truncates_packet () =
  let pl, _ = simple_pipeline () in
  let tok = Pipeline.predict pl ~pc:0x40 ~max_len:4 in
  let slots = Array.make width Types.no_branch in
  slots.(1) <- Types.resolved_branch ~kind:Types.Cond ~taken:false ~target:0;
  let seq = Pipeline.fire pl tok ~slots ~packet_len:4 in
  Pipeline.mispredict pl ~seq ~slot:1
    (Types.resolved_branch ~kind:Types.Cond ~taken:true ~target:0x900);
  let entry = Pipeline.entry pl seq in
  check Alcotest.int "packet cut after culprit" 2 entry.e_packet_len;
  check Alcotest.(list bool) "dir bits corrected" [ true ] (History_file.dir_bits entry)

let test_lhist_speculation_and_squash () =
  (* an opinion must claim branch existence (o_branch) for history pushes *)
  let comp, _ =
    stub ~latency:1 ~name:"T" (fun _ _ ->
        let p = Types.no_prediction ~width in
        p.(0) <- Types.direction_opinion ~taken:true;
        p)
  in
  let pl = Pipeline.create cfg (Topology.node comp) in
  let pc = 0x40 in
  let before = Pipeline.lhist_value pl ~pc in
  let tok = Pipeline.predict pl ~pc ~max_len:4 in
  let after = Pipeline.lhist_value pl ~pc in
  check Alcotest.bool "lhist pushed" false (Bits.equal before after);
  Pipeline.squash_from pl tok;
  check Alcotest.bool "lhist restored" true
    (Bits.equal before (Pipeline.lhist_value pl ~pc))

let test_fire_backpressure () =
  let pl, _ = simple_pipeline () in
  for i = 0 to Pipeline.history_entries - 1 do
    let tok = Pipeline.predict pl ~pc:(0x40 + (64 * i)) ~max_len:4 in
    ignore (Pipeline.fire pl tok ~slots:no_branch_slots ~packet_len:4)
  done;
  check Alcotest.bool "full" false (Pipeline.can_fire pl);
  Pipeline.commit pl;
  check Alcotest.bool "commit frees" true (Pipeline.can_fire pl)

(* Predecode correction at fire: the Fetch-1 composite predicts a taken
   conditional in slot 0, but the fired slots hold no branch. By default
   fire recomputes the packet's bits from the slots, so none reaches the
   global history; [~correct:false] keeps the Fetch-1 bit. *)
let test_fire_correct () =
  let ghist_after_fire ?correct () =
    let comp, _ = stub ~name:"T" (always_taken ~target:0x500) in
    let pl = Pipeline.create cfg (Topology.node comp) in
    let tok = Pipeline.predict pl ~pc:0x40 ~max_len:4 in
    check (Alcotest.list Alcotest.bool) "Fetch-1 bits" [ true ]
      (Pipeline.applied_dir_bits pl tok);
    ignore (Pipeline.fire ?correct pl tok ~slots:no_branch_slots ~packet_len:1);
    Bits.to_int (Pipeline.ghist_value pl)
  in
  check Alcotest.int "default fire shifts no bit" 0 (ghist_after_fire ());
  check Alcotest.int "~correct:false shifts the Fetch-1 bit" 1
    (ghist_after_fire ~correct:false ())

(* A component declaring 8 metadata bits but packing 4 is refused by both
   engines, by name, when it seals its packer into the host's 8-bit buffer. *)
let test_meta_width_enforced () =
  let bad () =
    let packer = Bitpack.Packer.create ~owner:"BAD" ~width:4 in
    Component.make ~name:"BAD" ~family:Component.Static ~fetch_width:width ~latency:1
      ~meta_bits:8
      ~storage:Storage.zero
      ~predict:(fun _ ~pred_in:_ ~out:_ ~meta ->
        Bitpack.Packer.add packer 0 ~bits:4;
        Bitpack.Packer.finish_into packer meta)
      ()
  in
  let refused = Invalid_argument "component BAD returned 4 metadata bits, declared 8" in
  let pl = Pipeline.create cfg (Topology.node (bad ())) in
  Alcotest.check_raises "interpreted" refused (fun () ->
      ignore (Pipeline.predict pl ~pc:0 ~max_len:4));
  let eng = Cobra_compile.Engine.create cfg (Topology.node (bad ())) in
  Alcotest.check_raises "compiled" refused (fun () ->
      ignore (Cobra_compile.Engine.step eng ~pc:0 ~kind:Types.Cond ~taken:true ~target:64))

(* --- history registers: property tests against reference models ---------- *)

(* Reference model for the pipeline's speculative global history: a plain
   list of bits, youngest first, truncated to the register width. Each
   pending packet's bits are set with [revise_dir_bits]; firing with
   [~correct:false] shifts exactly those bits into the register. *)
let prop_pipeline_ghist_matches_reference =
  let open QCheck in
  (* ops: predict a packet with these bits / fire the oldest / squash from
     pending position k / revise the bits at pending position k *)
  let op_gen =
    Gen.oneof
      [
        Gen.map (fun bits -> `Push bits) (Gen.list_size (Gen.int_range 0 3) Gen.bool);
        Gen.return `Commit;
        Gen.map (fun k -> `Drop k) (Gen.int_range 0 4);
        Gen.map2 (fun k bits -> `Replace (k, bits)) (Gen.int_range 0 4)
          (Gen.list_size (Gen.int_range 0 3) Gen.bool);
      ]
  in
  QCheck.Test.make ~name:"pipeline ghist matches list reference" ~count:200
    (make ~print:(fun _ -> "<ops>") (Gen.list_size (Gen.int_range 1 40) op_gen))
    (fun ops ->
      let bits = 12 in
      let comp, _ = stub ~name:"S" silent in
      let pl =
        Pipeline.create { cfg with Pipeline.ghist_bits = bits } (Topology.node comp)
      in
      (* reference: fired bits (youngest first) and pending packets *)
      let committed = ref [] in
      let pending = ref [] in
      let token_at k = List.nth (Pipeline.pending_tokens pl) k in
      List.iter
        (fun op ->
          match op with
          | `Push packet ->
            let tok = Pipeline.predict pl ~pc:0x40 ~max_len:1 in
            Pipeline.revise_dir_bits pl tok packet;
            pending := !pending @ [ packet ]
          | `Commit -> (
            match !pending with
            | p :: rest ->
              ignore
                (Pipeline.fire ~correct:false pl (token_at 0) ~slots:no_branch_slots
                   ~packet_len:1);
              Pipeline.commit pl;
              committed := List.rev p @ !committed;
              pending := rest
            | [] -> ())
          | `Drop k ->
            if k < List.length !pending then begin
              Pipeline.squash_from pl (token_at k);
              pending := List.filteri (fun i _ -> i < k) !pending
            end
          | `Replace (k, packet) ->
            if k < List.length !pending then begin
              Pipeline.revise_dir_bits pl (token_at k) packet;
              pending := List.mapi (fun i p -> if i = k then packet else p) !pending
            end)
        ops;
      let expected =
        (* youngest bit first: newest pending packet's newest bit, then back
           through pending packets, then the fired bits *)
        let all = List.concat (List.map List.rev (List.rev !pending)) @ !committed in
        List.filteri (fun i _ -> i < bits) all
      in
      let v = Pipeline.ghist_value pl in
      List.for_all2
        (fun i b -> Bits.get v i = b)
        (List.init (List.length expected) Fun.id)
        expected)

let prop_lhist_push_restore_roundtrip =
  QCheck.Test.make ~name:"lhist restore undoes pushes" ~count:200
    QCheck.(list (pair (int_bound 1000) bool))
    (fun pushes ->
      let l = Lhist_provider.create ~entries:32 ~bits:8 in
      let limbs = Lhist_provider.limbs l in
      let pushes = Array.of_list pushes in
      let log = Array.make (Array.length pushes * limbs) 0 in
      Array.iteri
        (fun k (pc, b) ->
          Lhist_provider.save_limbs l ~pc log ~pos:(k * limbs);
          Lhist_provider.push_in_place l ~pc b)
        pushes;
      for k = Array.length pushes - 1 downto 0 do
        Lhist_provider.restore_limbs l ~pc:(fst pushes.(k)) log ~pos:(k * limbs)
      done;
      Array.for_all (fun (pc, _) -> Bits.to_int (Lhist_provider.read l ~pc) = 0) pushes)

(* Regression: the table once shared one zero vector across all entries,
   harmless while pushes replaced entries, an aliasing bug once the compiled
   engine shifts them in place. *)
let test_lhist_entries_distinct () =
  let l = Lhist_provider.create ~entries:16 ~bits:8 in
  let pc = 0x40 in
  let mine = Lhist_provider.index l ~pc in
  Lhist_provider.push_in_place l ~pc true;
  Lhist_provider.push_in_place l ~pc true;
  check Alcotest.int "pushed entry" 0b11 (Bits.to_int (Lhist_provider.nth l mine));
  for i = 0 to Lhist_provider.entries l - 1 do
    if i <> mine then
      check Alcotest.int (Printf.sprintf "entry %d untouched" i) 0
        (Bits.to_int (Lhist_provider.nth l i))
  done

(* A reused context names a new packet after [reset]: new PC, bumped
   stamp, empty fold memo (its history buffers changed in between). *)
let test_context_reset () =
  let ghist = Bits.zero 16 in
  let ctx =
    Context.make ~pc:0x40 ~fetch_width:width ~live_slots:1 ~ghist
      ~lhists:(Array.make width (Bits.zero 8)) ()
  in
  check Alcotest.int "folds the zero history" 0 (Context.folded_ghist ctx ~len:16 ~bits:4);
  Bits.shift_in_lsb_in_place ghist true;
  let stamp = ctx.Context.stamp in
  Context.reset ctx ~pc:0x80;
  check Alcotest.int "new pc" 0x80 ctx.Context.pc;
  check Alcotest.bool "stamp bumped" true (ctx.Context.stamp <> stamp);
  check Alcotest.int "memo cleared: refolds the shifted buffer" 1
    (Context.folded_ghist ctx ~len:16 ~bits:4)

(* --- path history provider ------------------------------------------------ *)

let test_phist_updates_on_taken_branches () =
  let pl, _ = simple_pipeline () in
  let before = Pipeline.phist_value pl in
  let tok = Pipeline.predict pl ~pc:0x40 ~max_len:4 in
  (* the stub predicts a taken branch at slot 0 -> path bits pushed *)
  check Alcotest.bool "phist changed" false
    (Bits.equal before (Pipeline.phist_value pl));
  (* squashing the packet restores it *)
  Pipeline.squash_from pl tok;
  check Alcotest.bool "phist restored on squash" true
    (Bits.equal before (Pipeline.phist_value pl))

let test_phist_silent_on_fallthrough () =
  let comp, _ = stub ~latency:1 ~name:"S" silent in
  let pl = Pipeline.create cfg (Topology.node comp) in
  let before = Pipeline.phist_value pl in
  ignore (Pipeline.predict pl ~pc:0x40 ~max_len:4);
  check Alcotest.bool "no taken branch, no path bits" true
    (Bits.equal before (Pipeline.phist_value pl))

let test_phist_restored_on_mispredict () =
  let pl, _ = simple_pipeline () in
  let fire_one pc =
    let tok = Pipeline.predict pl ~pc ~max_len:4 in
    Pipeline.fire pl tok ~slots:(taken_slots ~slot:0 ~target:0x500) ~packet_len:1
  in
  let s0 = fire_one 0x40 in
  let phist_after_s0 = Pipeline.phist_value pl in
  let _s1 = fire_one 0x500 in
  let _s2 = fire_one 0x500 in
  (* mispredict s0 as not-taken: the path history must rewind to s0's
     snapshot with no contribution from it (not taken => no path bits) *)
  Pipeline.mispredict pl ~seq:s0 ~slot:0
    (Types.resolved_branch ~kind:Types.Cond ~taken:false ~target:0);
  let entry = Pipeline.entry pl s0 in
  check Alcotest.int "entry path bits cleared" (-1) entry.e_path;
  check Alcotest.bool "phist rewound below post-fire value" false
    (Bits.equal phist_after_s0 (Pipeline.phist_value pl))

(* Random chains of stub components with random latencies: the pipeline must
   elaborate, predict at every stage, and fire/commit without error; the
   depth equals the max latency. *)
let prop_random_chain_topologies =
  QCheck.Test.make ~name:"random chain topologies elaborate and run" ~count:60
    QCheck.(list_of_size (Gen.int_range 1 6) (int_range 1 4))
    (fun latencies ->
      let comps =
        List.mapi
          (fun i lat ->
            fst
              (stub ~latency:lat ~name:(Printf.sprintf "C%d" i)
                 (if i mod 2 = 0 then direction_only ~taken:(i mod 4 = 0)
                  else always_taken ~target:(0x1000 + (16 * i)))))
          latencies
      in
      let topo =
        match comps with
        | first :: rest ->
          List.fold_left (fun acc c -> Topology.over c acc) (Topology.node first) rest
        | [] -> assert false
      in
      let pl = Pipeline.create cfg topo in
      let depth_ok = Pipeline.depth pl = List.fold_left max 1 latencies in
      let tok = Pipeline.predict pl ~pc:0x40 ~max_len:4 in
      let stages = Pipeline.stages pl tok in
      let stage_count_ok = Array.length stages = Pipeline.depth pl in
      let seq = Pipeline.fire pl tok ~slots:no_branch_slots ~packet_len:4 in
      Pipeline.commit pl;
      depth_ok && stage_count_ok && seq >= 0)

let test_storage_accounting () =
  let pl, _ = simple_pipeline () in
  let s = Pipeline.storage pl in
  let m = Pipeline.management_storage pl in
  check Alcotest.bool "management includes lhist table" true
    (m.Storage.sram_bits >= cfg.lhist_entries * cfg.lhist_bits);
  check Alcotest.bool "total >= management" true
    (Storage.total_bits s >= Storage.total_bits m)

let () =
  Alcotest.run "cobra_core"
    [
      ( "types",
        [
          Alcotest.test_case "merge opinion" `Quick test_merge_opinion;
          Alcotest.test_case "next_fetch" `Quick test_next_fetch;
          Alcotest.test_case "next_fetch w/o target" `Quick test_next_fetch_no_target;
          Alcotest.test_case "direction bits" `Quick test_direction_bits;
        ] );
      ("row", [ Prop.test_case prop_row_roundtrip; Prop.test_case prop_row_merge ]);
      ( "topology",
        [
          Alcotest.test_case "expression" `Quick test_topology_expression;
          Alcotest.test_case "duplicate names rejected" `Quick test_topology_duplicate_names;
          Alcotest.test_case "loop overrides pht" `Quick test_topology_loop_overrides;
          Alcotest.test_case "ubtb strongest" `Quick test_topology_ubtb_strongest;
          Alcotest.test_case "arbitrate default path" `Quick test_arbitrate_default_path;
          Alcotest.test_case "arbitrate validation" `Quick test_arbitrate_validation;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "metadata roundtrip" `Quick test_metadata_roundtrip;
          Alcotest.test_case "fire/commit events" `Quick test_fire_and_commit_events;
          Alcotest.test_case "ghist speculation" `Quick test_ghist_speculative_update;
          Alcotest.test_case "squash restores ghist" `Quick test_squash_restores_ghist;
          Alcotest.test_case "revise dir bits" `Quick test_revise_dir_bits;
          Alcotest.test_case "mispredict repair" `Quick test_mispredict_repair;
          Alcotest.test_case "mispredict truncates packet" `Quick test_mispredict_truncates_packet;
          Alcotest.test_case "lhist speculation" `Quick test_lhist_speculation_and_squash;
          Alcotest.test_case "lhist entries distinct" `Quick test_lhist_entries_distinct;
          Alcotest.test_case "context reset" `Quick test_context_reset;
          Alcotest.test_case "fire backpressure" `Quick test_fire_backpressure;
          Alcotest.test_case "fire corrects by default" `Quick test_fire_correct;
          Alcotest.test_case "meta width enforced" `Quick test_meta_width_enforced;
          Alcotest.test_case "storage accounting" `Quick test_storage_accounting;
        ] );
      ( "path history",
        [
          Alcotest.test_case "updates on taken" `Quick test_phist_updates_on_taken_branches;
          Alcotest.test_case "silent on fallthrough" `Quick test_phist_silent_on_fallthrough;
          Alcotest.test_case "restored on mispredict" `Quick test_phist_restored_on_mispredict;
        ] );
      ( "properties",
        [
          Prop.test_case prop_pipeline_ghist_matches_reference;
          Prop.test_case prop_lhist_push_restore_roundtrip;
          Prop.test_case prop_random_chain_topologies;
        ] );
    ]
