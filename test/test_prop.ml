(* Property tests over the component library, driven by the stdlib-only
   {!Prop} harness (seeded, shrinking):

   - saturating counters never leave their declared bit-width;
   - every component honours the metadata-width contract at predict time;
   - declared storage bits match the configured table geometry;
   - firing a wrong-path packet and repairing it leaves a component's
     observable state exactly as if the packet had never been fired
     ("update-after-repair idempotence");
   - a gshare-only topology driven through the real {!Cobra.Pipeline} by
     {!Software_model} agrees prediction-for-prediction with an independent
     straight-line reference model on randomized traces. *)

open Cobra
open Cobra_components
module Bits = Cobra_util.Bits
module Counter = Cobra_util.Counter
module Hashing = Cobra_util.Hashing
module Trace = Cobra_isa.Trace
module Suite = Cobra_workloads.Suite
module Btrace = Cobra_trace_replay.Btrace
module Replay = Cobra_trace_replay.Replay
module Software_model = Cobra_trace_replay.Software_model
open Cobra_eval

let check = Alcotest.check
let width = 4

let cfg =
  {
    Pipeline.fetch_width = width;
    ghist_bits = 32;
    lhist_bits = 16;
    lhist_entries = 128;
    history_entries = 16;
    path_bits = 16;
    predecode_history_correction = true;
  }

(* --- saturating counters --------------------------------------------------- *)

type counter_op = Inc | Dec | Upd of bool

let op_arb = Prop.oneof [ Inc; Dec; Upd true; Upd false ]

let show_op = function
  | Inc -> "Inc"
  | Dec -> "Dec"
  | Upd b -> Printf.sprintf "Upd %b" b

let test_counter_saturation () =
  let case =
    Prop.pair (Prop.int_range 1 8)
      (Prop.list ~max_len:40 { op_arb with Prop.show = show_op })
  in
  Prop.check ~name:"unsigned counters stay in [0, 2^bits)" case (fun (bits, ops) ->
      let v = ref (Counter.weakly_not_taken ~bits) in
      check Alcotest.bool "initial value in range" true (Counter.is_valid ~bits !v);
      List.iter
        (fun op ->
          (v :=
             match op with
             | Inc -> Counter.increment ~bits !v
             | Dec -> Counter.decrement ~bits !v
             | Upd taken -> Counter.update ~bits !v ~taken);
          check Alcotest.bool
            (Printf.sprintf "bits=%d value=%d in range after %s" bits !v (show_op op))
            true
            (Counter.is_valid ~bits !v))
        ops;
      (* saturation is a fixpoint at both rails *)
      check Alcotest.int "increment saturates" (Counter.max_value ~bits)
        (Counter.increment ~bits (Counter.max_value ~bits));
      check Alcotest.int "decrement saturates" 0 (Counter.decrement ~bits 0))

let test_signed_counter_saturation () =
  let case =
    Prop.pair (Prop.int_range 2 8) (Prop.list ~max_len:40 (Prop.int_range (-3) 3))
  in
  Prop.check ~name:"signed counters stay in signed range" case (fun (bits, dirs) ->
      let lo = Counter.signed_min ~bits and hi = Counter.signed_max ~bits in
      let v = ref 0 in
      List.iter
        (fun dir ->
          v := Counter.update_signed ~bits !v ~dir;
          check Alcotest.bool
            (Printf.sprintf "bits=%d value=%d within [%d,%d]" bits !v lo hi)
            true
            (!v >= lo && !v <= hi))
        dirs;
      check Alcotest.int "positive rail is a fixpoint" hi
        (Counter.update_signed ~bits hi ~dir:1);
      check Alcotest.int "negative rail is a fixpoint" lo
        (Counter.update_signed ~bits lo ~dir:(-1)))

(* --- metadata-width contract ------------------------------------------------ *)

let random_ctx st =
  let pc = 0x1000 + (4 * Random.State.int st 4096) in
  let ghist = Bits.init cfg.Pipeline.ghist_bits (fun _ -> Random.State.bool st) in
  let lhists =
    Array.init width (fun _ ->
        Bits.init cfg.Pipeline.lhist_bits (fun _ -> Random.State.bool st))
  in
  Context.make ~pc ~fetch_width:width ~ghist ~lhists ()

let component_zoo =
  [
    ( "HBIM/pc",
      fun () -> Hbim.make (Hbim.default ~name:"BIM" ~indexing:Indexing.Pc) );
    ( "HBIM/ghist",
      fun () -> Hbim.make (Hbim.default ~name:"GBIM" ~indexing:Indexing.(Hash [ Pc; Ghist 12 ])) );
    ("GSHARE", fun () -> Gshare.make (Gshare.default ~name:"GSHARE"));
    ("GSELECT", fun () -> Gselect.make (Gselect.default ~name:"GSELECT"));
    ("GTAG", fun () -> Gtag.make (Gtag.default ~name:"GTAG"));
    ("LOOP", fun () -> Loop_pred.make (Loop_pred.default ~name:"LOOP"));
    ("BTB", fun () -> Btb.make (Btb.default ~name:"BTB"));
    ("UBTB", fun () -> Ubtb.make (Ubtb.default ~name:"UBTB"));
  ]

let test_meta_width_contract () =
  let case =
    Prop.pair
      (Prop.oneof (List.map fst component_zoo))
      (Prop.int_range 0 0x3FFF)
  in
  (* one long-lived instance per component: the contract must hold on a
     trained table too, not only on the reset state *)
  let instances = List.map (fun (n, mk) -> (n, mk ())) component_zoo in
  let st = Random.State.make [| 7 |] in
  Prop.check ~name:"predict returns exactly meta_bits of metadata" case
    (fun (name, _salt) ->
      let c = List.assoc name instances in
      let ctx = random_ctx st in
      let pred_in = [ Array.make width Types.empty_opinion ] in
      let pred, meta = c.Component.predict ctx ~pred_in in
      check Alcotest.int
        (Printf.sprintf "%s meta width" name)
        c.Component.meta_bits (Bits.width meta);
      check Alcotest.int
        (Printf.sprintf "%s opinion vector width" name)
        width (Array.length pred))

(* --- storage accounting matches geometry ------------------------------------ *)

let test_storage_matches_geometry () =
  let case = Prop.pair (Prop.int_range 4 11) (Prop.int_range 1 4) in
  Prop.check ~name:"storage bits follow the configured geometry" case
    (fun (log2_entries, counter_bits) ->
      let entries = 1 lsl log2_entries in
      let hbim =
        Hbim.make
          { (Hbim.default ~name:"B" ~indexing:Indexing.Pc) with
            Hbim.entries; counter_bits }
      in
      check Alcotest.int "HBIM sram = entries * counter_bits"
        (entries * counter_bits)
        hbim.Component.storage.Storage.sram_bits;
      let gshare =
        Gshare.make
          { (Gshare.default ~name:"G") with Gshare.index_bits = log2_entries; counter_bits }
      in
      check Alcotest.int "GSHARE sram = 2^index_bits * counter_bits"
        (entries * counter_bits)
        gshare.Component.storage.Storage.sram_bits;
      let tag_bits = 5 + counter_bits in
      let gtag =
        Gtag.make { (Gtag.default ~name:"T") with Gtag.entries; tag_bits; counter_bits }
      in
      check Alcotest.int "GTAG sram = entries * (valid + tag + counter)"
        (entries * (1 + tag_bits + counter_bits))
        gtag.Component.storage.Storage.sram_bits;
      (* doubling the geometry doubles the SRAM bits, for every table *)
      let hbim2 =
        Hbim.make
          { (Hbim.default ~name:"B2" ~indexing:Indexing.Pc) with
            Hbim.entries = 2 * entries; counter_bits }
      in
      check Alcotest.int "doubling entries doubles storage"
        (2 * hbim.Component.storage.Storage.sram_bits)
        hbim2.Component.storage.Storage.sram_bits)

(* --- update-after-repair idempotence ----------------------------------------- *)

(* Drive one committed conditional branch through the pipeline, predicted
   slots carrying the actual outcome (pure training, no mispredict). *)
let commit_branch pl ~pc ~taken =
  let tok = Pipeline.predict pl ~pc ~max_len:1 in
  let slots = Array.make width Types.no_branch in
  slots.(0) <-
    Types.resolved_branch ~kind:Types.Cond ~taken
      ~target:(if taken then pc + 0x40 else 0);
  let seq = Pipeline.fire pl tok ~slots ~packet_len:1 in
  Pipeline.resolve pl ~seq ~slot:0
    (Types.resolved_branch ~kind:Types.Cond ~taken ~target:(pc + 0x40));
  Pipeline.commit pl

(* A mispredicted branch with [wrongs] younger wrong-path packets in flight
   when it resolves: the packets are fired (speculative component state!)
   and then repaired + squashed by the mispredict walk. With [wrongs = []]
   this is the same committed sequence without the excursion. *)
let mispredict_with_excursion pl ~pc ~wrongs =
  let tok = Pipeline.predict pl ~pc ~max_len:1 in
  let slots = Array.make width Types.no_branch in
  slots.(0) <- Types.resolved_branch ~kind:Types.Cond ~taken:false ~target:0;
  let seq = Pipeline.fire pl tok ~slots ~packet_len:1 in
  List.iter
    (fun (wpc, wtaken) ->
      let tok = Pipeline.predict pl ~pc:wpc ~max_len:1 in
      let slots = Array.make width Types.no_branch in
      slots.(0) <-
        Types.resolved_branch ~kind:Types.Cond ~taken:wtaken
          ~target:(if wtaken then wpc + 0x40 else 0);
      ignore (Pipeline.fire pl tok ~slots ~packet_len:1))
    wrongs;
  Pipeline.mispredict pl ~seq ~slot:0
    (Types.resolved_branch ~kind:Types.Cond ~taken:true ~target:(pc + 0x40));
  Pipeline.commit pl

let probe_pcs = List.init 8 (fun i -> 0x1000 + (0x40 * i))

let probe pl ~pc =
  let tok = Pipeline.predict pl ~pc ~max_len:1 in
  let stages = Pipeline.stages pl tok in
  let final = stages.(Array.length stages - 1) in
  let op = final.(0) in
  Pipeline.squash_from pl tok;
  (op.Types.o_taken, op.Types.o_branch, op.Types.o_target)

let repairable_zoo =
  [
    ( "HBIM/ghist",
      fun () -> Hbim.make (Hbim.default ~name:"GBIM" ~indexing:Indexing.(Hash [ Pc; Ghist 12 ])) );
    ("GSHARE", fun () -> Gshare.make (Gshare.default ~name:"GSHARE"));
    ("GTAG", fun () -> Gtag.make (Gtag.default ~name:"GTAG"));
    ("LOOP", fun () -> Loop_pred.make (Loop_pred.default ~name:"LOOP"));
  ]

type repair_case = {
  rc_comp : string;
  rc_prefix : (int * bool) list;  (** committed training before the excursion *)
  rc_wrongs : (int * bool) list;  (** wrong-path packets repaired mid-flight *)
  rc_suffix : (int * bool) list;  (** committed training after the excursion *)
}

let branch_arb =
  let p = Prop.pair (Prop.int_range 0 7) Prop.bool in
  {
    Prop.gen = (fun st -> let i, b = p.Prop.gen st in (List.nth probe_pcs i, b));
    Prop.show = (fun (pc, b) -> Printf.sprintf "(0x%x,%b)" pc b);
    Prop.shrink = (fun _ -> []);
  }

let repair_case_arb =
  let comp = Prop.oneof (List.map fst repairable_zoo) in
  let branches = Prop.list ~max_len:12 branch_arb in
  let wrongs = Prop.list ~min_len:1 ~max_len:4 branch_arb in
  {
    Prop.gen =
      (fun st ->
        {
          rc_comp = comp.Prop.gen st;
          rc_prefix = branches.Prop.gen st;
          rc_wrongs = wrongs.Prop.gen st;
          rc_suffix = branches.Prop.gen st;
        });
    Prop.shrink =
      (fun c ->
        List.map (fun p -> { c with rc_prefix = p }) (branches.Prop.shrink c.rc_prefix)
        @ List.map (fun w -> { c with rc_wrongs = w }) (wrongs.Prop.shrink c.rc_wrongs)
        @ List.map (fun s -> { c with rc_suffix = s }) (branches.Prop.shrink c.rc_suffix));
    Prop.show =
      (fun c ->
        Printf.sprintf "{comp=%s; prefix=%s; wrongs=%s; suffix=%s}" c.rc_comp
          (branches.Prop.show c.rc_prefix)
          (wrongs.Prop.show c.rc_wrongs)
          (branches.Prop.show c.rc_suffix));
  }

let test_update_after_repair_idempotent () =
  Prop.check ~count:60 ~name:"fire-then-repair leaves no trace in component state"
    repair_case_arb (fun c ->
      let mk = List.assoc c.rc_comp repairable_zoo in
      (* two fresh instances of the same component, same committed path; only
         [dirty] fires the wrong-path packets (which are then repaired) *)
      let clean = Pipeline.create cfg (Topology.node (mk ())) in
      let dirty = Pipeline.create cfg (Topology.node (mk ())) in
      let drive pl ~wrongs =
        List.iter (fun (pc, taken) -> commit_branch pl ~pc ~taken) c.rc_prefix;
        mispredict_with_excursion pl ~pc:(List.hd probe_pcs) ~wrongs;
        List.iter (fun (pc, taken) -> commit_branch pl ~pc ~taken) c.rc_suffix
      in
      drive clean ~wrongs:[];
      drive dirty ~wrongs:c.rc_wrongs;
      check Alcotest.bool "speculative ghist restored" true
        (Bits.equal (Pipeline.ghist_value clean) (Pipeline.ghist_value dirty));
      List.iter
        (fun pc ->
          let t1, b1, g1 = probe clean ~pc and t2, b2, g2 = probe dirty ~pc in
          let label = Printf.sprintf "%s probe at 0x%x" c.rc_comp pc in
          check Alcotest.(option bool) (label ^ " direction") t1 t2;
          check Alcotest.(option bool) (label ^ " existence") b1 b2;
          check Alcotest.(option int) (label ^ " target") g1 g2)
        probe_pcs)

(* --- differential: Pipeline vs Software_model on a gshare-only design -------- *)

let gshare_cfg =
  { (Gshare.default ~name:"GSHARE") with Gshare.index_bits = 8; history_length = 8 }

let gshare_design () : Designs.t =
  {
    Designs.name = "GSHARE-only";
    paper_storage_kb = 0.0;
    paper_rows = [];
    make = (fun () -> Topology.node (Gshare.make gshare_cfg));
    pipeline_config = cfg;
  }

let workload_of_events events : Suite.entry =
  {
    Suite.name = "randomized";
    description = "property-test trace";
    make = (fun () -> Trace.of_list events);
    decode = None;
  }

let events_of_branches branches =
  List.map
    (fun (pc, taken) ->
      {
        Trace.pc;
        cls = Trace.Alu;
        addr = None;
        srcs = [];
        dst = None;
        branch = Some { Trace.kind = Types.Cond; taken; target = pc + 0x40 };
        next_pc = (if taken then pc + 0x40 else pc + 4);
      })
    branches

(* An independent straight-line gshare: same indexing function, actual-outcome
   global history, 2-bit counters trained at retirement. The pipeline run goes
   through predict/fire/mispredict/repair/commit with in-flight metadata; this
   one is ~10 lines of textbook code. They must agree branch-for-branch. *)
let reference_predictions branches =
  let bits = gshare_cfg.Gshare.index_bits in
  let cbits = gshare_cfg.Gshare.counter_bits in
  let hlen = gshare_cfg.Gshare.history_length in
  let table = Array.make (1 lsl bits) (Counter.weakly_not_taken ~bits:cbits) in
  let ghist = ref (Bits.zero cfg.Pipeline.ghist_bits) in
  List.map
    (fun (pc, taken) ->
      let idx =
        Hashing.pc_index ~pc ~bits
        lxor Hashing.folded_history !ghist ~len:hlen ~bits
      in
      let pred = Counter.is_taken ~bits:cbits table.(idx) in
      table.(idx) <- Counter.update ~bits:cbits table.(idx) ~taken;
      ghist := Bits.shift_in_lsb !ghist taken;
      pred)
    branches

let model_predictions branches =
  let preds = ref [] in
  let observe (r : Btrace.record) ~taken_pred ~wrong:_ =
    if r.Btrace.b_kind = Types.Cond then preds := taken_pred :: !preds
  in
  let r =
    Software_model.run ~insns:(List.length branches) ~observe (gshare_design ())
      (workload_of_events (events_of_branches branches))
  in
  check Alcotest.int "model consumed every branch" (List.length branches)
    r.Replay.branches;
  List.rev !preds

let test_gshare_differential () =
  let case = Prop.list ~max_len:300 branch_arb in
  Prop.check ~count:30 ~name:"gshare: Pipeline == straight-line reference" case
    (fun branches ->
      let expected = reference_predictions branches in
      let got = model_predictions branches in
      List.iteri
        (fun i (e, g) ->
          if e <> g then
            Alcotest.failf "branch %d of %d: reference %b, pipeline %b" i
              (List.length branches) e g)
        (List.combine expected got))

(* --- trace-file serialization ------------------------------------------------ *)

module Trace_file = Cobra_isa.Trace_file

let random_event st =
  let pc = 4 * (1 + Random.State.int st 0xFFFFF) in
  let cls =
    [| Trace.Alu; Trace.Mul; Trace.Div; Trace.Load; Trace.Store; Trace.Fp; Trace.Nop |]
    .(Random.State.int st 7)
  in
  let branch =
    if Random.State.bool st then
      Some
        {
          Trace.kind =
            [| Types.Cond; Types.Jump; Types.Call; Types.Ret; Types.Ind |]
            .(Random.State.int st 5);
          taken = Random.State.bool st;
          target = 4 * Random.State.int st 0xFFFFF;
        }
    else None
  in
  {
    Trace.pc;
    cls;
    addr = (if Random.State.bool st then Some (Random.State.int st 0xFFFF) else None);
    srcs = List.init (Random.State.int st 4) (fun _ -> Random.State.int st 32);
    dst = (if Random.State.bool st then Some (Random.State.int st 32) else None);
    branch;
    next_pc = 4 * (1 + Random.State.int st 0xFFFFF);
  }

let event_arb =
  Prop.make ~show:Trace_file.event_to_string (fun st -> random_event st)

let test_trace_file_roundtrip_prop () =
  Prop.check ~name:"event_of_string inverts event_to_string" event_arb (fun ev ->
      match Trace_file.event_of_string (Trace_file.event_to_string ev) with
      | Some ev' ->
        if ev <> ev' then
          Alcotest.failf "round trip changed the event: %s -> %s"
            (Trace_file.event_to_string ev)
            (Trace_file.event_to_string ev')
      | None -> Alcotest.fail "serialized event parsed as blank")

let malformed_lines =
  [
    "zz";
    "1000 alu";
    "1000 bogus 1004";
    "1000 alu zz";
    "1000 alu 1004 B cond 2 1040";
    "1000 alu 1004 B flip 1 1040";
    "1000 alu 1004 D -3";
    "1000 alu 1004 S 1,-2";
    "1000 alu 1004 X 5";
  ]

let contains haystack needle =
  let n = String.length needle and m = String.length haystack in
  let rec go i = i + n <= m && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_trace_file_rejection_prop () =
  let case =
    Prop.pair (Prop.int_range 0 6) (Prop.oneof malformed_lines)
  in
  let st = Random.State.make [| 0xbad |] in
  Prop.check ~name:"a malformed line fails naming its 1-based line number" case
    (fun (n_before, bad) ->
      let events = List.init n_before (fun _ -> random_event st) in
      let path = Filename.temp_file "cobra_prop" ".trace" in
      Fun.protect ~finally:(fun () -> Sys.remove path) (fun () ->
          Out_channel.with_open_text path (fun oc ->
              List.iter
                (fun ev -> Out_channel.output_string oc (Trace_file.event_to_string ev ^ "\n"))
                events;
              Out_channel.output_string oc (bad ^ "\n"));
          match Trace_file.load ~path with
          | _ -> Alcotest.failf "malformed line %S was accepted" bad
          | exception Failure msg ->
            let expected = Printf.sprintf "line %d" (n_before + 1) in
            if not (contains msg expected) then
              Alcotest.failf "error %S does not name %S" msg expected))

(* --- steady-state allocation budget ------------------------------------------ *)

(* The gshare-only hot path is the tightest loop in the simulator; this pins
   its steady-state allocation rate so a regression (a closure reintroduced
   in predict/update, an un-memoized fold) fails loudly. The budget is far
   above the measured rate (~5.4 KB/insn at PR time) but well below the
   pre-optimization rate (~8.7 KB/insn). Allocation, unlike wall-clock, is
   deterministic, so this does not flake under load. *)
let alloc_budget_bytes_per_insn = 7_000.0

let test_gshare_alloc_budget () =
  let d = Designs.gshare_only in
  let w = Cobra_workloads.Suite.find "aliasing" in
  let pl = Cobra.Pipeline.create d.Designs.pipeline_config (d.Designs.make ()) in
  let core =
    Cobra_uarch.Core.create ?decode:w.Cobra_workloads.Suite.decode
      Cobra_uarch.Config.default pl
      (w.Cobra_workloads.Suite.make ())
  in
  (* warm the tables so one-time growth does not count against the budget *)
  ignore (Cobra_uarch.Core.run core ~max_insns:10_000);
  let i0 = (Cobra_uarch.Core.perf core).Cobra_uarch.Perf.instructions in
  let a0 = Gc.allocated_bytes () in
  let perf = Cobra_uarch.Core.run core ~max_insns:40_000 in
  let da = Gc.allocated_bytes () -. a0 in
  let measured = max 1 (perf.Cobra_uarch.Perf.instructions - i0) in
  let per_insn = da /. float_of_int measured in
  if per_insn > alloc_budget_bytes_per_insn then
    Alcotest.failf "gshare steady state allocates %.1f B/insn (budget %.1f)" per_insn
      alloc_budget_bytes_per_insn

let () =
  Alcotest.run "prop"
    [
      ( "counters",
        [
          Alcotest.test_case "unsigned saturation" `Quick test_counter_saturation;
          Alcotest.test_case "signed saturation" `Quick test_signed_counter_saturation;
        ] );
      ( "components",
        [
          Alcotest.test_case "meta-width contract" `Quick test_meta_width_contract;
          Alcotest.test_case "storage geometry" `Quick test_storage_matches_geometry;
          Alcotest.test_case "update-after-repair" `Quick
            test_update_after_repair_idempotent;
        ] );
      ( "differential",
        [ Alcotest.test_case "gshare vs reference" `Quick test_gshare_differential ] );
      ( "trace_file",
        [
          Alcotest.test_case "round trip" `Quick test_trace_file_roundtrip_prop;
          Alcotest.test_case "malformed rejection" `Quick test_trace_file_rejection_prop;
        ] );
      ( "allocation",
        [ Alcotest.test_case "gshare alloc budget" `Quick test_gshare_alloc_budget ] );
    ]
