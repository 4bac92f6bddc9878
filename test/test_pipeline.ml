(* The interpreted pipeline's recycled packet records:

   - the allocation budget of interpreted replay per reference design,
     the twin of the compiled engine's budget in test_compile;
   - a record's buffers stay its packet's until the packet retires, and
     retired records are reused rather than rebuilt. *)

open Cobra
module Bits = Cobra_util.Bits
module Designs = Cobra_eval.Designs
module Fuzz = Cobra_conformance.Fuzz
module Replay = Cobra_trace_replay.Replay
module Btrace = Cobra_trace_replay.Btrace

let check = Alcotest.check
let seed = 0xc0de5

(* --- allocation budget -------------------------------------------------------------- *)

(* Steady-state minor-heap allocation of interpreted replay ([Replay.Sim.step]:
   predict, fire, resolve or mispredict, commit), per branch, over a seeded
   fuzz stream after a warm-up stretch. Every packet record, context,
   history buffer, stage row and event record is recycled, a mispredict's
   events are built with the record, one per culprit slot, and the
   resolved outcomes are interned per simulator; so, as in test_compile,
   what the stretch allocates is the interning of the outcomes it is the
   first to see (1.14 B/branch for every design and seed tried). Each
   ceiling is that rate plus 25%, so a per-packet copy, list, option or
   closure reintroduced into the pipeline fails here. *)
let alloc_ceilings = [ ("GShare", 1.4); ("Tourney", 1.4); ("B2", 1.4); ("TAGE-L", 1.4) ]

(* [Replay.Sim.step] over the records, each copied into one cursor *)
let step_all sim recs =
  let c = Btrace.cursor () in
  List.iter
    (fun r ->
      Btrace.fill c r;
      ignore (Replay.Sim.step sim c))
    recs

let per_branch_alloc sim recs =
  let w0 = Gc.minor_words () in
  step_all sim recs;
  (Gc.minor_words () -. w0) *. float_of_int (Sys.word_size / 8)
  /. float_of_int (List.length recs)

let test_alloc_budget (name, ceiling) () =
  let d = Designs.find name in
  let recs = Fuzz.branches { Fuzz.seed; shape = Fuzz.Mixed; length = 12_000 } in
  let warm = List.filteri (fun i _ -> i < 4_000) recs in
  let measured = List.filteri (fun i _ -> i >= 4_000) recs in
  let sim = Replay.Sim.create `Interpreted d in
  step_all sim warm;
  let per_branch = per_branch_alloc sim measured in
  if per_branch > ceiling then
    Alcotest.failf "%s interpreted replay allocates %.2f B/branch (ceiling %.1f)" name
      per_branch ceiling

(* --- record recycling ------------------------------------------------------------ *)

let width = 4

let cfg =
  {
    Pipeline.fetch_width = width;
    ghist_bits = 16;
    lhist_bits = 8;
    lhist_entries = 64;
  }

(* A direction predictor whose opinion and metadata follow the PC: taken
   on every other 8-byte block, metadata = the PC's low byte. *)
let pc_follower () =
  Component.make ~name:"PCF" ~family:Component.Static ~fetch_width:width ~latency:1
    ~meta_bits:8
    ~storage:Storage.zero
    ~predict:(fun ctx ~pred_in:_ ~out ~meta ->
      Row.set out 0 (Types.direction_opinion ~taken:((ctx.Context.pc lsr 3) land 1 = 1));
      Cobra_util.Bitpack.store ~owner:"PCF"
        (Bits.of_int ~width:8 (ctx.Context.pc land 0xff))
        ~dst:meta)
    ()

let slots_taken taken =
  let s = Array.make width Types.no_branch in
  s.(0) <- Types.resolved_branch ~kind:Types.Cond ~taken ~target:(if taken then 0x900 else 0);
  s

(* What a packet's record shows its host and its components: the context
   (PC, live slots, histories), the stage rows and the metadata. *)
let view pl seq =
  let e = Pipeline.entry pl seq in
  let ctx = e.History_file.e_ctx in
  ( (ctx.Context.pc, ctx.Context.live_slots),
    ( Bits.to_string ctx.Context.ghist,
      Bits.to_string ctx.Context.phist,
      Array.to_list (Array.map Bits.to_string ctx.Context.lhists) ),
    Array.to_list
      (Array.map (fun row -> Format.asprintf "%a" Row.pp row) e.History_file.e_stages),
    Array.to_list (Array.map Bits.to_string e.History_file.e_metas) )

(* Fire two packets, commit the first and predict a third: the third takes
   the first's record, and the second — still in flight — keeps its
   context, stage rows and metadata exactly. *)
let test_retired_record_reused () =
  let pl = Pipeline.create cfg (Topology.node (pc_follower ())) in
  let fire pc ~max_len taken =
    let tok = Pipeline.predict pl ~pc ~max_len in
    Pipeline.fire pl tok ~slots:(slots_taken taken) ~packet_len:1
  in
  let s0 = fire 0x48 ~max_len:4 true in
  let s1 = fire 0x900 ~max_len:2 false in
  let before = view pl s1 in
  let ctx0 = (Pipeline.entry pl s0).History_file.e_ctx in
  Pipeline.commit pl;
  let tok = Pipeline.predict pl ~pc:0x1238 ~max_len:3 in
  check Alcotest.bool "the third packet reuses the retired record" true
    (Pipeline.context pl tok == ctx0);
  check Alcotest.bool "the in-flight packet's record is untouched" true (view pl s1 = before)

(* A long predict/squash loop draws every packet from the same two
   records: none is built once the pool holds them. *)
let test_squash_loop_recycles () =
  let pl = Pipeline.create cfg (Topology.node (pc_follower ())) in
  let seen = ref [] in
  let note tok =
    let ctx = Pipeline.context pl tok in
    if not (List.memq ctx !seen) then seen := ctx :: !seen
  in
  for i = 0 to 999 do
    let a = Pipeline.predict pl ~pc:(0x40 * i) ~max_len:4 in
    let b = Pipeline.predict pl ~pc:(0x40 * (i + 1)) ~max_len:4 in
    note a;
    note b;
    Pipeline.squash_from pl a
  done;
  check Alcotest.int "records behind 2000 packets" 2 (List.length !seen)

let () =
  Alcotest.run "pipeline"
    [
      ( "allocation",
        List.map
          (fun ((name, _) as c) ->
            Alcotest.test_case (name ^ " interpreted replay budget") `Quick
              (test_alloc_budget c))
          alloc_ceilings );
      ( "recycling",
        [
          Alcotest.test_case "retired record reused, in-flight one intact" `Quick
            test_retired_record_reused;
          Alcotest.test_case "predict/squash loop stops building records" `Quick
            test_squash_loop_recycles;
        ] );
    ]
