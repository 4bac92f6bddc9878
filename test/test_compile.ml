(* Compiled-engine and composer certification beyond the fixed conformance
   suites:

   - a seeded property over {e random} well-formed topology specs (random
     component subsets and arbitration orders, random geometry knobs) and
     over streams with unknown targets: the compiled engine must agree with the
     interpreted pipeline branch-for-branch on direction and mispredict
     decisions and end with a bit-identical snapshot slab, with shrinking
     and COBRA_SEED replay hints via {!Prop};
   - over the same specs, the composer both engines share must produce the
     per-stage composites of [Golden.compose], the recursive reference
     semantics ([Crosscheck.compose]);
   - both engines refuse the same malformed designs;
   - checkpoint interchange: slabs taken by either engine restore into the
     other and reproduce the non-snapshot oracle window bit-for-bit;
   - windowed [cobra serve] sweeps on the compiled engine, including
     [verify] (interpreted recomputation) and the warm-checkpoint reuse
     path, which is each daemon's own;
   - the warm-cache LRU regression: with [COBRA_WARM_CACHE] at 2, three
     distinct warm regions must leave exactly 2 entries and 1 eviction;
   - the compiled replay's allocation budget per reference design. *)

open Cobra
module Slab = Cobra_util.Slab
module Designs = Cobra_eval.Designs
module Fuzz = Cobra_conformance.Fuzz
module Crosscheck = Cobra_conformance.Crosscheck
module Engine = Cobra_compile.Engine
module Replay = Cobra_trace_replay.Replay
module Reader = Cobra_trace_replay.Reader
module Writer = Cobra_trace_replay.Writer
module Btrace = Cobra_trace_replay.Btrace
module Serve = Cobra_serve.Serve
module C = Cobra_components

let check = Alcotest.check
let width = 4
let seed = 0xc0de5

(* --- random topology specs ------------------------------------------------------ *)

(* A generatable, shrinkable description of one component. Latencies stay in
   1..3 so any sub-tree satisfies Topology.validate under a latency-3
   selector; history lengths are clamped to the generated geometry. *)
type idx = IPc | IGhist of int | ILhist of int | IPhist of int

type comp =
  | CGshare of { index_bits : int; hist : int; lat : int }
  | CHbim of { entries_l2 : int; idx : idx; lat : int }
  | CBtb of { sets_l2 : int; ways : int; lat : int }

type node =
  | Leaf of comp
  | Over of comp * node
  | Arb of int * node * node  (** tourney chooser (entries_log2) over two subs *)

type tcase = {
  t_ghist : int;
  t_lhist_bits : int;
  t_lhist_entries : int;
  t_topo : node;
  t_shape : Fuzz.shape;
  t_len : int;
  t_sseed : int;  (** branch-stream seed, independent of the driver seed *)
  t_no_target : bool;  (** every other record's target is [Btrace.no_target] *)
}

let show_idx = function
  | IPc -> "pc"
  | IGhist n -> Printf.sprintf "ghist:%d" n
  | ILhist n -> Printf.sprintf "lhist:%d" n
  | IPhist n -> Printf.sprintf "phist:%d" n

let show_comp = function
  | CGshare { index_bits; hist; lat } ->
    Printf.sprintf "gshare(ix=%d,h=%d,lat=%d)" index_bits hist lat
  | CHbim { entries_l2; idx; lat } ->
    Printf.sprintf "hbim(2^%d,%s,lat=%d)" entries_l2 (show_idx idx) lat
  | CBtb { sets_l2; ways; lat } ->
    Printf.sprintf "btb(2^%d x%d,lat=%d)" sets_l2 ways lat

let rec show_node = function
  | Leaf c -> show_comp c
  | Over (c, sub) -> Printf.sprintf "(%s > %s)" (show_comp c) (show_node sub)
  | Arb (e, a, b) ->
    Printf.sprintf "tourney(2^%d) > [%s; %s]" e (show_node a) (show_node b)

let show_tcase tc =
  Printf.sprintf "ghist=%d lhist=%dx%d shape=%s len=%d sseed=%d no_target=%b %s" tc.t_ghist
    tc.t_lhist_bits tc.t_lhist_entries (Fuzz.shape_name tc.t_shape) tc.t_len tc.t_sseed
    tc.t_no_target (show_node tc.t_topo)

let gen_comp st ~ghist ~lhist_bits =
  let ri n = Random.State.int st n in
  match ri 3 with
  | 0 ->
    CGshare { index_bits = 4 + ri 6; hist = 1 + ri (min 16 ghist); lat = 1 + ri 2 }
  | 1 ->
    let idx =
      match ri 4 with
      | 0 -> IPc
      | 1 -> IGhist (1 + ri (min 12 ghist))
      | 2 -> ILhist (1 + ri (min 12 lhist_bits))
      | _ -> IPhist (1 + ri (min 12 Pipeline.path_bits))
    in
    CHbim { entries_l2 = 4 + ri 5; idx; lat = 1 + ri 2 }
  | _ -> CBtb { sets_l2 = 3 + ri 4; ways = 1 + ri 3; lat = 1 + ri 2 }

let rec gen_node st ~depth ~ghist ~lhist_bits =
  let leaf () = Leaf (gen_comp st ~ghist ~lhist_bits) in
  if depth = 0 then leaf ()
  else
    match Random.State.int st 4 with
    | 0 | 1 -> leaf ()
    | 2 ->
      Over
        ( gen_comp st ~ghist ~lhist_bits,
          gen_node st ~depth:(depth - 1) ~ghist ~lhist_bits )
    | _ ->
      Arb
        ( 4 + Random.State.int st 5,
          gen_node st ~depth:(depth - 1) ~ghist ~lhist_bits,
          gen_node st ~depth:(depth - 1) ~ghist ~lhist_bits )

let gen_tcase st =
  let ghist = 8 + Random.State.int st 41 in
  let lhist_bits = 4 + Random.State.int st 21 in
  let lhist_entries = if Random.State.bool st then 64 else 256 in
  {
    t_ghist = ghist;
    t_lhist_bits = lhist_bits;
    t_lhist_entries = lhist_entries;
    t_topo = gen_node st ~depth:2 ~ghist ~lhist_bits;
    t_shape =
      [| Fuzz.Loops; Fuzz.Correlated; Fuzz.Aliasing; Fuzz.Phases; Fuzz.Storms; Fuzz.Mixed |]
        .(Random.State.int st 6);
    t_len = 20 + Random.State.int st 141;
    t_sseed = Random.State.int st 10_000;
    t_no_target = Random.State.bool st;
  }

(* Shrink the topology structurally (replace a node by a sub-tree), then the
   stream length toward a handful of branches. *)
let rec shrink_node = function
  | Leaf _ -> []
  | Over (c, sub) -> sub :: List.map (fun s -> Over (c, s)) (shrink_node sub)
  | Arb (e, a, b) ->
    (a :: b :: List.map (fun a' -> Arb (e, a', b)) (shrink_node a))
    @ List.map (fun b' -> Arb (e, a, b')) (shrink_node b)

let shrink_tcase tc =
  List.map (fun n -> { tc with t_topo = n }) (shrink_node tc.t_topo)
  @ (if tc.t_len > 4 then [ { tc with t_len = tc.t_len / 2 }; { tc with t_len = 4 } ]
     else [])
  @ if tc.t_no_target then [ { tc with t_no_target = false } ] else []

let tcase_arb = Prop.make ~shrink:shrink_tcase ~show:show_tcase gen_tcase

(* --- building and driving the twins --------------------------------------------- *)

let build_topo node =
  let counter = ref 0 in
  let name () =
    incr counter;
    Printf.sprintf "c%d" !counter
  in
  let build_comp = function
    | CGshare { index_bits; hist; lat } ->
      C.Hbim.make
        {
          C.Hbim.name = name ();
          latency = lat;
          entries = 1 lsl index_bits;
          counter_bits = 2;
          indexing = C.Indexing.(Hash [ Pc; Ghist hist ]);
          fetch_width = width;
        }
    | CHbim { entries_l2; idx; lat } ->
      let indexing =
        match idx with
        | IPc -> C.Indexing.Pc
        | IGhist n -> C.Indexing.Ghist n
        | ILhist n -> C.Indexing.Lhist n
        | IPhist n -> C.Indexing.Phist n
      in
      C.Hbim.make
        {
          C.Hbim.name = name ();
          latency = lat;
          entries = 1 lsl entries_l2;
          counter_bits = 2;
          indexing;
          fetch_width = width;
        }
    | CBtb { sets_l2; ways; lat } ->
      C.Btb.make
        {
          C.Btb.name = name ();
          latency = lat;
          sets = 1 lsl sets_l2;
          ways;
          tag_bits = 10;
          fetch_width = width;
        }
  in
  let rec build = function
    | Leaf c -> Topology.node (build_comp c)
    | Over (c, sub) -> Topology.over (build_comp c) (build sub)
    | Arb (e, a, b) ->
      let sel =
        C.Tourney.make
          {
            C.Tourney.name = name ();
            latency = 3;
            entries = 1 lsl e;
            counter_bits = 2;
            history_length = 10;
            fetch_width = width;
          }
      in
      Topology.arbitrate sel [ build a; build b ]
  in
  build node

let config_of tc =
  {
    Pipeline.fetch_width = width;
    ghist_bits = tc.t_ghist;
    lhist_bits = tc.t_lhist_bits;
    lhist_entries = tc.t_lhist_entries;
  }

let compile_equiv tc =
  let cfg = config_of tc in
  let si = Replay.Sim.of_pipeline (Pipeline.create cfg (build_topo tc.t_topo)) in
  let sc = Replay.Sim.of_engine (Engine.create cfg (build_topo tc.t_topo)) in
  let bs = Fuzz.branches { Fuzz.seed = tc.t_sseed; shape = tc.t_shape; length = tc.t_len } in
  let c = Btrace.cursor () in
  List.iteri
    (fun i (r : Btrace.record) ->
      let r =
        if tc.t_no_target && i land 1 = 1 then { r with Btrace.b_target = Btrace.no_target }
        else r
      in
      Btrace.fill c r;
      let w_i = Replay.Sim.step si c in
      let w_c = Replay.Sim.step sc c in
      let tp_i = Replay.Sim.last_taken_pred si and tp_c = Replay.Sim.last_taken_pred sc in
      if tp_i <> tp_c || w_i <> w_c then
        Alcotest.failf
          "branch %d/%d %s: interpreted taken_pred=%b wrong=%b, compiled taken_pred=%b \
           wrong=%b"
          i tc.t_len (Btrace.show_record r) tp_i w_i tp_c w_c)
    bs;
  if not (Slab.equal (Replay.Sim.snapshot si) (Replay.Sim.snapshot sc)) then
    Alcotest.fail "final snapshot slabs differ between interpreted and compiled"

let test_random_topologies () =
  Prop.check ~count:60 ~name:"compiled engine = interpreted pipeline on random topologies"
    tcase_arb compile_equiv

(* Both engines share the composer, so the property above cannot see its
   bugs: here it must match the golden recursive semantics. *)
let compose_equiv tc =
  let v =
    Crosscheck.compose ~length:tc.t_len ~shapes:[ tc.t_shape ] ~seed:tc.t_sseed
      ~name:(show_node tc.t_topo) ~fetch_width:width (fun () -> build_topo tc.t_topo)
  in
  if not v.Crosscheck.v_pass then Alcotest.fail v.Crosscheck.v_detail

let test_random_composition () =
  Prop.check ~count:60 ~name:"composer = golden composition on random topologies" tcase_arb
    compose_equiv

(* Both engines refuse the same malformed inputs with the same message:
   each builds its own composer and history buffers, so both must run the
   one configuration check before either. *)
let test_engines_refuse () =
  let cfg = { Pipeline.default_config with Pipeline.fetch_width = width } in
  let leaf = Leaf (CHbim { entries_l2 = 4; idx = IPc; lat = 1 }) in
  (* [build_topo] numbers its components, so two builds share names *)
  let dup () = Topology.(build_topo leaf >> build_topo leaf) in
  let refusal make cfg topo =
    match make cfg topo with
    | () -> None
    | exception Invalid_argument msg -> Some msg
  in
  List.iter
    (fun (what, cfg, topo) ->
      let interpreted = refusal (fun cfg topo -> ignore (Pipeline.create cfg topo)) cfg (topo ())
      and compiled = refusal (fun cfg topo -> ignore (Engine.create cfg topo)) cfg (topo ()) in
      match (interpreted, compiled) with
      | Some m, Some m' ->
        check Alcotest.string (what ^ ": same message from both engines") m m'
      | None, _ -> Alcotest.failf "interpreted engine accepted %s" what
      | _, None -> Alcotest.failf "compiled engine accepted %s" what)
    [
      ("fetch_width 0", { cfg with Pipeline.fetch_width = 0 }, fun () -> build_topo leaf);
      ("ghist_bits 0", { cfg with Pipeline.ghist_bits = 0 }, fun () -> build_topo leaf);
      ("lhist_bits 0", { cfg with Pipeline.lhist_bits = 0 }, fun () -> build_topo leaf);
      ("lhist_entries 3", { cfg with Pipeline.lhist_entries = 3 }, fun () -> build_topo leaf);
      ("duplicate component names", cfg, dup);
      ( "8-wide pipeline over 4-wide components",
        { cfg with Pipeline.fetch_width = 8 },
        fun () -> build_topo leaf );
      ( "2-wide pipeline under 4-wide components",
        { cfg with Pipeline.fetch_width = 2 },
        fun () -> build_topo leaf );
    ];
  check
    Alcotest.(option string)
    "the width refusal names the component and both widths"
    (Some "Composer.create: component c1 is built for fetch width 4, not 8")
    (refusal
       (fun cfg topo -> ignore (Engine.create cfg topo))
       { cfg with Pipeline.fetch_width = 8 } (build_topo leaf))

(* --- checkpoint interchange ------------------------------------------------------ *)

let fuzz_records length =
  List.map
    (fun r -> { r with Btrace.b_gap = 2 })
    (Fuzz.branches { Fuzz.seed; shape = Fuzz.Mixed; length })

let with_trace length f =
  let path = Filename.temp_file "cobra_compile_test" ".cobt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Writer.save ~format:Btrace.Binary path (fuzz_records length);
      f path)

(* Slabs interchange between engines: a warm checkpoint taken by one engine,
   restored into the other, must reproduce the continuous-replay oracle
   window bit-for-bit. *)
let test_checkpoint_interchange () =
  let d = Designs.tourney in
  let name = d.Designs.name in
  let len = 400 and warm = 250 in
  let warmup ~branches sim rd = Replay.warmup ~branches ~design:name ~trace:"fuzz" sim rd in
  with_trace len (fun path ->
      let oracle =
        Reader.with_file path (fun rd ->
            let sim = Replay.Sim.create `Interpreted d in
            let _ck, _w = warmup ~branches:warm sim rd in
            snd (warmup ~branches:(len - warm) sim rd))
      in
      List.iter
        (fun (from, into) ->
          let ck =
            Reader.with_file path (fun rd ->
                fst (warmup ~branches:warm (Replay.Sim.create from d) rd))
          in
          Reader.with_file path (fun rd ->
              let sim = Replay.Sim.create into d in
              Replay.restore sim rd ck;
              let _ck, r = warmup ~branches:(len - warm) sim rd in
              check Alcotest.bool
                (Printf.sprintf "%s checkpoint drives the %s engine" (Replay.engine_name from)
                   (Replay.engine_name into))
                true
                (Replay.counters_equal r oracle)))
        [ (`Interpreted, `Compiled); (`Compiled, `Interpreted) ])

(* --- windowed serve sweeps on the compiled engine -------------------------------- *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let check_contains what haystack needle =
  if not (contains haystack needle) then
    Alcotest.failf "%s: expected %S inside %S" what needle haystack

let collect_handle daemon line =
  let out = ref [] in
  let status = Serve.handle_line daemon (fun s -> out := s :: !out) line in
  (status, List.rev !out)

let daemon () =
  Serve.create { (Serve.default_config ~socket:"/tmp/unused.sock") with Serve.jobs = 2 }

let count_events out needle =
  List.length (List.filter (fun l -> contains l needle) out)

let windowed_req path =
  Printf.sprintf
    {|{"op": "sweep", "designs": ["Tourney"], "traces": ["%s"], "warmup_branches": 120, "window_branches": 60, "windows": 3, "verify": true, "engine": "compiled", "no_cache": true}|}
    path

let test_serve_windowed_compiled () =
  with_trace 300 (fun path ->
      let srv = daemon () in
      let req = windowed_req path in
      let status, out = collect_handle srv req in
      check Alcotest.bool "continue" true (status = `Continue);
      let all = String.concat "\n" out in
      check Alcotest.int "no error events" 0 (count_events out {|"event": "error"|});
      check Alcotest.int "one result per window" 3 (count_events out {|"event": "result"|});
      check_contains "windows verified against the interpreted oracle" all
        {|"verified": true|};
      check_contains "results carry the engine" all {|"engine": "compiled"|};
      check_contains "summary reports warm telemetry" all {|"warm_entries"|};
      check_contains "terminator" all {|"event": "done"|};
      (* repeat: the warm checkpoint is reused across requests (restore
         instead of re-warm), still verified and error-free *)
      let _, out2 = collect_handle srv req in
      let all2 = String.concat "\n" out2 in
      check Alcotest.int "repeat has no errors" 0 (count_events out2 {|"event": "error"|});
      check_contains "warm checkpoint reused" all2 {|"warm_cached": true|})

(* The warm cache belongs to one daemon: a second daemon in the same
   process warms up on its own. *)
let test_serve_daemons_separate () =
  with_trace 300 (fun path ->
      let req = windowed_req path in
      let first = daemon () in
      ignore (collect_handle first req);
      let _, again = collect_handle first req in
      check_contains "first daemon reuses its checkpoint" (String.concat "\n" again)
        {|"warm_cached": true|};
      let _, out = collect_handle (daemon ()) req in
      let all = String.concat "\n" out in
      check Alcotest.int "second daemon runs clean" 0 (count_events out {|"event": "error"|});
      check_contains "second daemon warms up itself" all {|"warm_cached": false|};
      check Alcotest.int "and never sees the first's checkpoint" 0
        (count_events out {|"warm_cached": true|}))

let test_serve_unknown_engine () =
  with_trace 50 (fun path ->
      let status, out =
        collect_handle (daemon ())
          (Printf.sprintf
             {|{"op": "replay", "design": "Tourney", "trace": "%s", "engine": "warp"}|} path)
      in
      check Alcotest.bool "daemon survives" true (status = `Continue);
      let all = String.concat "\n" out in
      check_contains "error names the engine" all "unknown engine";
      check_contains "terminator still sent" all {|"event": "done"|})

(* --- warm-cache LRU regression ---------------------------------------------------- *)

(* The warm cache used to grow without bound — one entry per distinct
   (design, trace, warmup) forever. With COBRA_WARM_CACHE=2 (read when the
   daemon is created), three distinct warm regions must leave exactly 2
   entries and 1 eviction, as the daemon's own sweep summary reports. *)
let test_warm_cache_lru () =
  let srv = Cobra_util.Env.with_set [ ("COBRA_WARM_CACHE", "2") ] daemon in
  with_trace 300 (fun path ->
      let summary =
        List.fold_left
          (fun _ warm ->
            let req =
              Printf.sprintf
                {|{"op": "sweep", "designs": ["Tourney"], "traces": ["%s"], "warmup_branches": %d, "window_branches": 40, "no_cache": true}|}
                path warm
            in
            let _, out = collect_handle srv req in
            check Alcotest.int
              (Printf.sprintf "warmup %d runs clean" warm)
              0
              (count_events out {|"event": "error"|});
            List.find (fun l -> contains l {|"event": "sweep_summary"|}) out)
          "" [ 60; 80; 100 ]
      in
      check_contains "entries capped at COBRA_WARM_CACHE" summary {|"warm_entries": 2|};
      check_contains "one eviction counted" summary {|"warm_evictions": 1|})

(* --- allocation budget -------------------------------------------------------------- *)

(* Steady-state minor-heap allocation of compiled replay, per branch, over a
   seeded fuzz stream after a warm-up stretch. Allocation is deterministic
   (unlike wall-clock), so a regression in the engine or a component kernel
   — a per-step context or event record, a tuple-returning lookup, a
   closure in a hot loop — fails here. Ceilings are the rates measured
   when they were set plus 25% (GShare 49.0, Tourney 197.0, B2 170.0,
   TAGE-L 346.0 B/branch); what still allocates is the opinion records of
   target providers and merges, a [pred_in] list when a source's rows
   change, and resolved outcomes. *)
let alloc_ceilings = [ ("GShare", 62.); ("Tourney", 247.); ("B2", 213.); ("TAGE-L", 433.) ]

let test_alloc_budget (name, ceiling) () =
  let d = Designs.find name in
  let recs = Fuzz.branches { Fuzz.seed; shape = Fuzz.Mixed; length = 12_000 } in
  let warm = List.filteri (fun i _ -> i < 4_000) recs in
  let measured = List.filteri (fun i _ -> i >= 4_000) recs in
  let eng = Replay.compiled d in
  let run recs =
    let sim = Replay.Sim.of_engine eng and c = Btrace.cursor () in
    List.iter
      (fun r ->
        Btrace.fill c r;
        ignore (Replay.Sim.step sim c))
      recs
  in
  run warm;
  let w0 = Gc.minor_words () in
  run measured;
  let per_branch =
    (Gc.minor_words () -. w0) *. float_of_int (Sys.word_size / 8)
    /. float_of_int (List.length measured)
  in
  if per_branch > ceiling then
    Alcotest.failf "%s compiled replay allocates %.1f B/branch (ceiling %.0f)" name per_branch
      ceiling

(* --- registration ----------------------------------------------------------------- *)

let () =
  Alcotest.run "compile"
    [
      ( "property",
        [
          Alcotest.test_case "random topology compile/interpret equivalence" `Quick
            test_random_topologies;
          Alcotest.test_case "random topology composition against the golden semantics" `Quick
            test_random_composition;
          Alcotest.test_case "both engines refuse malformed designs" `Quick test_engines_refuse;
        ] );
      ( "checkpoints",
        [
          Alcotest.test_case "checkpoint interchange across engines" `Quick
            test_checkpoint_interchange;
        ] );
      ( "serve",
        [
          Alcotest.test_case "windowed sweep on the compiled engine" `Quick
            test_serve_windowed_compiled;
          Alcotest.test_case "two daemons keep separate warm caches" `Quick
            test_serve_daemons_separate;
          Alcotest.test_case "unknown engine is an error event" `Quick
            test_serve_unknown_engine;
          Alcotest.test_case "warm cache LRU cap" `Quick test_warm_cache_lru;
        ] );
      ( "allocation",
        List.map
          (fun ((name, _) as c) ->
            Alcotest.test_case (name ^ " compiled replay budget") `Quick (test_alloc_budget c))
          alloc_ceilings );
    ]
