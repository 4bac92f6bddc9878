(* Property tests over the component library, run through QCheck by the
   seeded {!Prop} runner:

   - saturating counters never leave their declared bit-width;
   - every component honours the metadata-width contract at predict time;
   - declared storage bits match the configured table geometry;
   - firing a wrong-path packet and repairing it leaves a component's
     observable state exactly as if the packet had never been fired
     ("update-after-repair idempotence");
   - a gshare-only topology driven through the real {!Cobra.Pipeline} by
     {!Software_model} agrees prediction-for-prediction with an independent
     straight-line reference model on randomized traces;
   - the staged gshare and gselect indexings compute the classic index
     formulas and allocate nothing per call. *)

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
  }

(* gshare (2^bits entries) and gselect (pc_bits ++ hist bits) as HBIM indexings *)
let gshare ?(bits = 12) ?(hist = 12) name =
  Hbim.make
    { (Hbim.default ~name ~indexing:Indexing.(Hash [ Pc; Ghist hist ])) with entries = 1 lsl bits }

let gselect ?(pc_bits = 6) ?(hist = 6) name =
  Hbim.make
    {
      (Hbim.default ~name ~indexing:Indexing.(Concat [ (Pc, pc_bits); (Ghist hist, hist) ])) with
      entries = 1 lsl (pc_bits + hist);
    }

(* --- saturating counters --------------------------------------------------- *)

type counter_op = Inc | Dec | Upd of bool

let show_op = function
  | Inc -> "Inc"
  | Dec -> "Dec"
  | Upd b -> Printf.sprintf "Upd %b" b

let op_arb = QCheck.oneofl ~print:show_op [ Inc; Dec; Upd true; Upd false ]

let test_counter_saturation () =
  let case = QCheck.(pair (int_range 1 8) (list_of_size Gen.(0 -- 40) op_arb)) in
  Prop.check
  @@ QCheck.Test.make ~name:"unsigned counters stay in [0, 2^bits)" case (fun (bits, ops) ->
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
      check Alcotest.int "decrement saturates" 0 (Counter.decrement ~bits 0);
      true)

let test_signed_counter_saturation () =
  let case = QCheck.(pair (int_range 2 8) (list_of_size Gen.(0 -- 40) (int_range (-3) 3))) in
  Prop.check
  @@ QCheck.Test.make ~name:"signed counters stay in signed range" case (fun (bits, dirs) ->
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
        (Counter.update_signed ~bits lo ~dir:(-1));
      true)

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
    ("GSHARE", fun () -> gshare "GSHARE");
    ("GSELECT", fun () -> gselect "GSELECT");
    ("GTAG", fun () -> Gtag.make (Gtag.default ~name:"GTAG"));
    ("LOOP", fun () -> Loop_pred.make (Loop_pred.default ~name:"LOOP"));
    ("BTB", fun () -> Btb.make (Btb.default ~name:"BTB"));
    ("UBTB", fun () -> Ubtb.make (Ubtb.default ~name:"UBTB"));
  ]

let test_meta_width_contract () =
  let case =
    QCheck.(pair (oneofl ~print:Fun.id (List.map fst component_zoo)) (int_range 0 0x3FFF))
  in
  (* one long-lived instance per component: the contract must hold on a
     trained table too, not only on the reset state *)
  let instances = List.map (fun (n, mk) -> (n, mk ())) component_zoo in
  let st = Random.State.make [| 7 |] in
  Prop.check
  @@ QCheck.Test.make ~name:"predict seals exactly meta_bits of metadata" case
       (fun (name, _salt) ->
      let c = List.assoc name instances in
      let ctx = random_ctx st in
      let pred_in = [| Row.create ~width |] in
      (* the host's buffer of the declared width is accepted... *)
      let out = Row.create ~width in
      c.Component.predict ctx ~pred_in ~out ~meta:(Bits.zero c.Component.meta_bits);
      check Alcotest.int
        (Printf.sprintf "%s opinion vector width" name)
        width (Row.width out);
      (* ...and one of any other width is refused *)
      match
        c.Component.predict ctx ~pred_in ~out:(Row.create ~width)
          ~meta:(Bits.zero (c.Component.meta_bits + 1))
      with
      | () -> Alcotest.failf "%s accepted a %d-bit metadata buffer" name (c.Component.meta_bits + 1)
      | exception Invalid_argument _ -> true)

(* --- storage accounting matches geometry ------------------------------------ *)

let test_storage_matches_geometry () =
  let case = QCheck.(pair (int_range 4 11) (int_range 1 4)) in
  Prop.check
  @@ QCheck.Test.make ~name:"storage bits follow the configured geometry" case
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
        hbim2.Component.storage.Storage.sram_bits;
      true)

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
    ("GSHARE", fun () -> gshare "GSHARE");
    ("GTAG", fun () -> Gtag.make (Gtag.default ~name:"GTAG"));
    ("LOOP", fun () -> Loop_pred.make (Loop_pred.default ~name:"LOOP"));
  ]

type repair_case = {
  rc_comp : string;
  rc_prefix : (int * bool) list;  (** committed training before the excursion *)
  rc_wrongs : (int * bool) list;  (** wrong-path packets repaired mid-flight *)
  rc_suffix : (int * bool) list;  (** committed training after the excursion *)
}

let show_branch (pc, b) = Printf.sprintf "(0x%x,%b)" pc b
let branch_gen = QCheck.Gen.(pair (oneofl probe_pcs) bool)
let branch_arb = QCheck.make ~print:show_branch branch_gen

(* Each branch list shrinks on its own, structurally; the excursion keeps
   at least one wrong-path packet. *)
let shrink_repair_case c =
  let open QCheck.Iter in
  let branches = QCheck.Shrink.list ?shrink:None in
  map (fun p -> { c with rc_prefix = p }) (branches c.rc_prefix)
  <+> map (fun w -> { c with rc_wrongs = w })
        (filter (function [] -> false | _ :: _ -> true) (branches c.rc_wrongs))
  <+> map (fun s -> { c with rc_suffix = s }) (branches c.rc_suffix)

let repair_case_arb =
  let branches n = QCheck.Gen.list_size n branch_gen in
  let show = QCheck.Print.list show_branch in
  QCheck.make ~shrink:shrink_repair_case
    ~print:(fun c ->
      Printf.sprintf "{comp=%s; prefix=%s; wrongs=%s; suffix=%s}" c.rc_comp
        (show c.rc_prefix) (show c.rc_wrongs) (show c.rc_suffix))
    (fun st ->
      let rc_comp = QCheck.Gen.oneofl (List.map fst repairable_zoo) st in
      let rc_prefix = branches QCheck.Gen.(0 -- 12) st in
      let rc_wrongs = branches QCheck.Gen.(1 -- 4) st in
      let rc_suffix = branches QCheck.Gen.(0 -- 12) st in
      { rc_comp; rc_prefix; rc_wrongs; rc_suffix })

let test_update_after_repair_idempotent () =
  Prop.check
  @@ QCheck.Test.make ~count:60 ~name:"fire-then-repair leaves no trace in component state"
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
        probe_pcs;
      true)

(* --- differential: Pipeline vs Software_model on a gshare-only design -------- *)

(* 256 entries of 2-bit counters, 8 bits of global history *)
let gshare_bits = 8
let gshare_hist = 8
let gshare_counter_bits = 2

let gshare_design () : Designs.t =
  {
    Designs.name = "GSHARE-only";
    make = (fun () -> Topology.node (gshare ~bits:gshare_bits ~hist:gshare_hist "GSHARE"));
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
  let bits = gshare_bits and cbits = gshare_counter_bits and hlen = gshare_hist in
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
  let observe (r : Btrace.cursor) ~taken_pred ~wrong:_ =
    if r.Btrace.c_kind = Types.Cond then preds := taken_pred :: !preds
  in
  let r =
    Software_model.run ~insns:(List.length branches) ~observe (gshare_design ())
      (workload_of_events (events_of_branches branches))
  in
  check Alcotest.int "model consumed every branch" (List.length branches)
    r.Replay.branches;
  List.rev !preds

let test_gshare_differential () =
  let case = QCheck.list_of_size QCheck.Gen.(0 -- 300) branch_arb in
  Prop.check
  @@ QCheck.Test.make ~count:30 ~name:"gshare: Pipeline == straight-line reference" case
       (fun branches ->
      let expected = reference_predictions branches in
      let got = model_predictions branches in
      List.iteri
        (fun i (e, g) ->
          if e <> g then
            Alcotest.failf "branch %d of %d: reference %b, pipeline %b" i
              (List.length branches) e g)
        (List.combine expected got);
      true)

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

let event_arb = QCheck.make ~print:Trace_file.event_to_string random_event

let test_trace_file_roundtrip_prop () =
  Prop.check
  @@ QCheck.Test.make ~name:"event_of_string inverts event_to_string" event_arb (fun ev ->
      match Trace_file.event_of_string (Trace_file.event_to_string ev) with
      | Some ev' ->
        if ev <> ev' then
          Alcotest.failf "round trip changed the event: %s -> %s"
            (Trace_file.event_to_string ev)
            (Trace_file.event_to_string ev');
        true
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
  let case = QCheck.(pair (int_range 0 6) (oneofl ~print:Fun.id malformed_lines)) in
  let st = Random.State.make [| 0xbad |] in
  Prop.check
  @@ QCheck.Test.make ~name:"a malformed line fails naming its 1-based line number" case
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
              Alcotest.failf "error %S does not name %S" msg expected;
            true))

(* --- staged indexing: gshare and gselect as HBIM indexings --------------------- *)

type index_case = {
  ic_pc : int;
  ic_ghist : Bits.t;  (** 64 random bits *)
  ic_slot : int;
  ic_a : int;  (** gshare: index bits; gselect: PC bits *)
  ic_h : int;  (** history bits *)
}

let index_case_arb ~a_range:(a_lo, a_hi) ~h_range:(h_lo, h_hi) =
  QCheck.make
    ~print:(fun c ->
      Printf.sprintf "pc=0x%x slot=%d a=%d h=%d ghist=%s" c.ic_pc c.ic_slot c.ic_a c.ic_h
        (Bits.to_string c.ic_ghist))
    (fun st ->
      {
        ic_pc = Random.State.bits st lsl 2;
        ic_ghist = Bits.init 64 (fun _ -> Random.State.bool st);
        ic_slot = Random.State.int st width;
        ic_a = a_lo + Random.State.int st (a_hi - a_lo + 1);
        ic_h = h_lo + Random.State.int st (h_hi - h_lo + 1);
      })

let index_ctx ~pc ~ghist =
  Context.make ~pc ~fetch_width:width ~ghist ~lhists:(Array.make width (Bits.zero 8)) ()

let test_gshare_indexing () =
  Prop.check
  @@ QCheck.Test.make ~name:"Hash [Pc; Ghist h] = the gshare formula"
       (index_case_arb ~a_range:(1, 20) ~h_range:(1, 64))
       (fun c ->
      let bits = c.ic_a and h = c.ic_h and slot = c.ic_slot in
      let ctx = index_ctx ~pc:c.ic_pc ~ghist:c.ic_ghist in
      let staged = Indexing.(index (Hash [ Pc; Ghist h ])) ~bits in
      let expected =
        Hashing.pc_index ~pc:(Context.slot_pc ctx slot) ~bits
        lxor Hashing.folded_history c.ic_ghist ~len:h ~bits
      in
      check Alcotest.int "index" expected (staged ctx ~slot);
      true)

let test_gselect_indexing () =
  Prop.check
  @@ QCheck.Test.make ~name:"Concat [(Pc, p); (Ghist h, h)] = the gselect formula"
       (index_case_arb ~a_range:(0, 12) ~h_range:(0, 16))
       (fun c ->
      let p = c.ic_a and h = c.ic_h and slot = c.ic_slot in
      let ctx = index_ctx ~pc:c.ic_pc ~ghist:c.ic_ghist in
      let staged = Indexing.(index (Concat [ (Pc, p); (Ghist h, h) ])) ~bits:(p + h) in
      let expected =
        (Hashing.pc_index ~pc:(Context.slot_pc ctx slot) ~bits:p lsl h)
        lor Bits.extract_int c.ic_ghist ~lo:0 ~len:h
      in
      check Alcotest.int "index" expected (staged ctx ~slot);
      true)

(* The per-slot index runs once per slot per event; staging hoists the
   source-tree walk out of it, so a call must not allocate at all. *)
let test_staged_index_allocates_nothing () =
  let ctx = index_ctx ~pc:0x4000 ~ghist:(Bits.init 64 (fun i -> i mod 3 = 0)) in
  List.iter
    (fun (src, bits) ->
      let f = Indexing.index src ~bits in
      (* warm-up: the context's fold memo is created on first use *)
      let acc = ref (f ctx ~slot:0) in
      let w0 = Gc.minor_words () in
      for i = 1 to 10_000 do
        acc := !acc lxor f ctx ~slot:(i land (width - 1))
      done;
      let words = Gc.minor_words () -. w0 in
      ignore (Sys.opaque_identity !acc);
      check (Alcotest.float 0.) (Indexing.describe src ^ " minor words") 0. words)
    Indexing.[ (Hash [ Pc; Ghist 12 ], 12); (Concat [ (Pc, 6); (Ghist 6, 6) ], 12) ]

let test_concat_width_refused () =
  let cfg =
    {
      (Hbim.default ~name:"GSEL" ~indexing:Indexing.(Concat [ (Pc, 3); (Ghist 4, 4) ])) with
      entries = 64;
    }
  in
  match Hbim.make cfg with
  | _ -> Alcotest.fail "a 7-bit concat over a 6-bit index was accepted"
  | exception Invalid_argument m ->
    check Alcotest.bool ("error names the component: " ^ m) true (contains m "GSEL")

(* --- steady-state allocation budget ------------------------------------------ *)

(* The gshare-only hot path is the tightest loop in the simulator; this pins
   its steady-state allocation rate so a regression (a closure reintroduced
   in predict/update, an un-memoized fold, a per-packet copy in the
   pipeline) fails loudly. The budget was set at the measured rate (2,512
   B/insn once the pipeline recycled its packet records, down from 4,717)
   plus 25%; the loop reads 2,450 B/insn now. Allocation, unlike
   wall-clock, is deterministic, so this does not flake under load. It is
   counted in minor words: on OCaml 5.1 [Gc.allocated_bytes] counts minor
   allocation only up to the last minor collection. *)
let alloc_budget_bytes_per_insn = 3_150.0

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
  let w0 = Gc.minor_words () in
  let perf = Cobra_uarch.Core.run core ~max_insns:40_000 in
  let da = (Gc.minor_words () -. w0) *. float_of_int (Sys.word_size / 8) in
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
      ( "indexing",
        [
          Alcotest.test_case "gshare formula" `Quick test_gshare_indexing;
          Alcotest.test_case "gselect formula" `Quick test_gselect_indexing;
          Alcotest.test_case "staged index allocates nothing" `Quick
            test_staged_index_allocates_nothing;
          Alcotest.test_case "concat width refused" `Quick test_concat_width_refused;
        ] );
    ]
