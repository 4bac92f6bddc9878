(* The traced run: per-layer metrics, each timed from outside through the
   layer's public functions, with a span around every timed call. *)

open Cobra_trace_replay
module Designs = Cobra_eval.Designs
module Engine = Cobra_compile.Engine
module Json = Cobra_stats.Json
module Perf = Cobra_uarch.Perf
module Suite = Cobra_workloads.Suite

let metric = Ctx.metric
let per n x = x /. float_of_int n
let ns n x = 1e9 *. per n x

let array_source (recs : Btrace.record array) =
  let i = ref 0 in
  fun () ->
    if !i < Array.length recs then begin
      let r = recs.(!i) in
      incr i;
      Some r
    end
    else None

(* Bare per-branch loops: the layer's own transaction with no driver around
   it (no counters besides mispredicts, no caps, deadline, observer or
   progress). Their mispredicts must equal the driver's. *)
let step_loop eng recs =
  let wrong = ref 0 in
  Array.iter
    (fun (r : Btrace.record) ->
      if Engine.step eng ~pc:r.b_pc ~kind:r.b_kind ~taken:r.b_taken ~target:r.b_target then incr wrong)
    recs;
  !wrong

let pipeline_loop pl recs =
  let open Cobra in
  let slots = Array.make (Pipeline.config pl).fetch_width Types.no_branch in
  let wrong_n = ref 0 in
  Array.iter
    (fun (r : Btrace.record) ->
      let kind = r.b_kind in
      let tok = Pipeline.predict pl ~pc:r.b_pc ~max_len:1 in
      let stages = Pipeline.stages pl tok in
      let final = stages.(Array.length stages - 1).(0) in
      let taken_pred = match final.o_taken with Some t -> t | None -> Types.is_unconditional kind in
      let known_target = r.b_target >= 0 in
      let wrong =
        taken_pred <> r.b_taken
        || r.b_taken && Types.is_unconditional kind
           && (not (Types.equal_branch_kind kind Types.Ret))
           && known_target
           && Option.value final.o_target ~default:(-1) <> r.b_target
      in
      if wrong then incr wrong_n;
      let target = if known_target then r.b_target else 0 in
      slots.(0) <- Types.resolved_branch ~kind ~taken:taken_pred ~target:(if taken_pred then target else 0);
      let seq = Pipeline.fire pl tok ~slots ~packet_len:1 in
      let actual = Types.resolved_branch ~kind ~taken:r.b_taken ~target in
      if wrong then Pipeline.mispredict pl ~seq ~slot:0 actual else Pipeline.resolve pl ~seq ~slot:0 actual;
      Pipeline.commit pl)
    recs;
  !wrong_n

let reader (ctx : Ctx.t) =
  let path = Ctx.trace_path ctx in
  let n, s, a =
    Measure.repeat ~reps:ctx.size.layer_reps ~prepare:ignore (fun () ->
        Span.with_ "reader.next" (fun () ->
            Reader.with_file path (fun rd ->
                let rec go k = match Reader.next rd with None -> k | Some _ -> go (k + 1) in
                go 0)))
  in
  metric ctx "reader.ns_per_record" (ns n s) "ns" ~note:"Reader.next, null sink";
  metric ctx "reader.alloc_bytes_per_record" (per n a) "B"

let build (ctx : Ctx.t) (d : Designs.t) =
  let reps = 3 * ctx.size.layer_reps in
  let _, c, _ =
    Measure.repeat ~reps ~prepare:ignore (fun () -> Span.with_ "engine.compile" (fun () -> Replay.compiled d))
  in
  let _, e, _ =
    Measure.repeat ~reps ~prepare:ignore (fun () ->
        Span.with_ "pipeline.elaborate" (fun () -> Designs.pipeline d))
  in
  metric ctx ("engine.compile_ms." ^ Ctx.key d) (1e3 *. c) "ms";
  metric ctx ("pipeline.elaborate_ms." ^ Ctx.key d) (1e3 *. e) "ms"

(* Replay over the trace prefix six ways, interleaved: through the Replay
   driver streamed from the file and from an in-memory array, and as the
   bare loop, on each engine. File minus array is decode; array minus bare
   is the driver's own time. Returns the compiled file run's result and
   median seconds. *)
let replay (ctx : Ctx.t) recs (d : Designs.t) =
  let path = Ctx.trace_path ctx and design = d.name in
  let n = Array.length recs in
  let k = Ctx.key d in
  let file_c = ref None and arr_c = ref None and file_i = ref None and arr_i = ref None in
  let step_wrong = ref 0 and bare_wrong = ref 0 in
  let with_engine make name f () =
    let x = make () in
    fun () -> Span.with_ name (fun () -> f x)
  in
  let compiled () = Replay.compiled d and pipeline () = Designs.pipeline d in
  let times =
    Measure.interleaved ~reps:ctx.size.layer_reps
      [
        with_engine compiled "replay.run_compiled" (fun eng ->
            file_c :=
              Some
                (Reader.with_file path (fun rd ->
                     Replay.run_compiled ~max_branches:n ~design ~trace:path eng (fun () -> Reader.next rd))));
        with_engine compiled "replay.run_compiled" (fun eng ->
            arr_c := Some (Replay.run_compiled ~design ~trace:path eng (array_source recs)));
        with_engine compiled "engine.step" (fun eng -> step_wrong := step_loop eng recs);
        with_engine pipeline "replay.run" (fun pl ->
            file_i :=
              Some
                (Reader.with_file path (fun rd ->
                     Replay.run ~max_branches:n ~design ~trace:path pl (fun () -> Reader.next rd))));
        with_engine pipeline "replay.run" (fun pl ->
            arr_i := Some (Replay.run ~design ~trace:path pl (array_source recs)));
        with_engine pipeline "pipeline.transaction" (fun pl -> bare_wrong := pipeline_loop pl recs);
      ]
  in
  let[@warning "-8"] [ (file_c_s, file_c_a); (arr_c_s, _); (step_s, step_a); (file_i_s, file_i_a); (arr_i_s, arr_i_a); (bare_s, _) ] =
    times
  in
  let get r = Option.get !r in
  let want = Mix.replay_counters (get file_c) in
  let want_wrong = [ ("mispredicts", (get file_c).mispredicts) ] in
  List.iter
    (fun (what, got, want) ->
      Ctx.attempt ctx (Printf.sprintf "layer replay %s, %s" design what) (fun () ->
          if got = want then Ok () else Error (Printf.sprintf "%s, compiled from file %s" (Ctx.show got) (Ctx.show want))))
    [
      ("compiled from array", Mix.replay_counters (get arr_c), want);
      ("interpreted from file", Mix.replay_counters (get file_i), want);
      ("interpreted from array", Mix.replay_counters (get arr_i), want);
      ("bare Engine.step loop", [ ("mispredicts", !step_wrong) ], want_wrong);
      ("bare pipeline loop", [ ("mispredicts", !bare_wrong) ], want_wrong);
    ];
  let decode a b = Printf.sprintf "decode %.1f ns/branch" (ns n (a -. b)) in
  metric ctx ("replay.driver_ns_per_branch.compiled." ^ k) (ns n (arr_c_s -. step_s)) "ns"
    ~note:(decode file_c_s arr_c_s);
  metric ctx ("replay.driver_ns_per_branch.interpreted." ^ k) (ns n (arr_i_s -. bare_s)) "ns"
    ~note:(decode file_i_s arr_i_s);
  metric ctx ("replay.alloc_bytes_per_branch.compiled." ^ k) (per n file_c_a) "B";
  metric ctx ("replay.alloc_bytes_per_branch.interpreted." ^ k) (per n file_i_a) "B";
  metric ctx ("engine.step_ns_per_branch." ^ k) (ns n step_s) "ns";
  metric ctx ("engine.step_alloc_bytes_per_branch." ^ k) (per n step_a) "B";
  metric ctx ("pipeline.txn_ns_per_branch." ^ k) (ns n arr_i_s) "ns" ~note:"array-sourced Replay.run";
  metric ctx ("pipeline.txn_alloc_bytes_per_branch." ^ k) (per n arr_i_a) "B";
  (get file_c, file_c_s)

let snapshot (ctx : Ctx.t) recs (d : Designs.t) =
  let eng = Replay.compiled d in
  ignore (step_loop eng recs);
  let reps = 10 * ctx.size.layer_reps in
  let slab, snap_s, _ =
    Measure.repeat ~reps ~prepare:ignore (fun () -> Span.with_ "engine.snapshot" (fun () -> Engine.snapshot eng))
  in
  let (), restore_s, _ =
    Measure.repeat ~reps ~prepare:ignore (fun () -> Span.with_ "engine.restore" (fun () -> Engine.restore eng slab))
  in
  Ctx.attempt ctx ("snapshot/restore " ^ d.name) (fun () ->
      if Cobra_util.Slab.equal (Engine.snapshot eng) slab then Ok () else Error "restore did not reproduce the snapshot");
  metric ctx ("engine.snapshot_us." ^ Ctx.key d) (1e6 *. snap_s) "us";
  metric ctx ("engine.restore_us." ^ Ctx.key d) (1e6 *. restore_s) "us"

let component_targets =
  [
    (Designs.gshare_only, [ "GSHARE" ]);
    (Designs.tage_l, [ "LOOP"; "TAGE"; "BTB"; "BIM"; "UBTB" ]);
    (Designs.tourney, [ "TOURNEY"; "GBIM"; "LBIM" ]);
  ]

let static ~fetch_width name taken =
  Cobra.Topology.node (Cobra_components.Static_pred.always ~name ~taken ~fetch_width ())

(* The design's component [name] alone; a selector arbitrates between two
   static leaves, so it still sees real incoming predictions. *)
let single (d : Designs.t) name () =
  let fetch_width = d.pipeline_config.fetch_width in
  match List.find_opt (fun (c : Cobra.Component.t) -> c.name = name) (Cobra.Topology.components (d.make ())) with
  | None -> failwith (Printf.sprintf "%s has no component %s" d.name name)
  | Some c when c.family = Cobra.Component.Selector ->
    Cobra.Topology.arbitrate c [ static ~fetch_width "STATIC-NT" false; static ~fetch_width "STATIC-T" true ]
  | Some c -> Cobra.Topology.node c

(* Each component: array-sourced compiled replay through the component
   alone, minus the same replay through one static predictor, interleaved
   with it. *)
let components (ctx : Ctx.t) recs =
  let n = Array.length recs in
  List.iter
    (fun ((d : Designs.t), names) ->
      let run topo () =
        let eng = Engine.create d.pipeline_config (topo ()) in
        fun () ->
        Span.with_ "component.replay" (fun () ->
            ignore (Replay.run_compiled ~design:d.name ~trace:"array" eng (array_source recs)))
      in
      let fetch_width = d.pipeline_config.fetch_width in
      Ctx.attempt ctx ("components of " ^ d.name) (fun () ->
          match
            Measure.interleaved ~reps:ctx.size.layer_reps
              (run (fun () -> static ~fetch_width "STATIC" true) :: List.map (fun c -> run (single d c)) names)
          with
          | [] -> Error "no samples"
          | (floor_s, floor_a) :: comps ->
            List.iter2
              (fun name (s, a) ->
                let prefix = Printf.sprintf "component.%s.%s" (Ctx.key d) (String.lowercase_ascii name) in
                metric ctx (prefix ^ ".ns_per_branch") (ns n (s -. floor_s)) "ns";
                metric ctx (prefix ^ ".alloc_bytes_per_branch") (per n (a -. floor_a)) "B")
              names comps;
            Ok ()))
    component_targets

let bits (ctx : Ctx.t) =
  let module Bits = Cobra_util.Bits in
  let iters = ctx.size.micro_iters in
  let h0 = Bits.init 64 (fun i -> i mod 3 = 0) in
  (* TAGE-L's geometry (Designs.tage_l): seven tables of 11 index bits over
     a 64-bit global history *)
  let lens = [| 4; 6; 10; 16; 26; 42; 64 |] in
  let out = Array.make (Array.length lens) 0 in
  match
    Measure.interleaved ~reps:ctx.size.layer_reps
      [
        (fun () () ->
          Span.with_ "bits.shift_in_lsb" (fun () ->
              let h = ref h0 in
              for i = 1 to iters do
                h := Bits.shift_in_lsb !h (i land 1 = 0)
              done;
              ignore (Sys.opaque_identity !h)));
        (fun () () ->
          Span.with_ "bits.fold_xor_sub_multi" (fun () ->
              for _ = 1 to iters do
                Bits.fold_xor_sub_multi h0 ~lens 11 ~out
              done));
      ]
  with
  | [ (shift_s, shift_a); (fold_s, fold_a) ] ->
    metric ctx "bits.shift_in_lsb_ns" (ns iters shift_s) "ns" ~note:"64-bit history";
    metric ctx "bits.shift_in_lsb_alloc_bytes" (per iters shift_a) "B";
    metric ctx "bits.fold_multi_ns.tage_l" (ns iters fold_s) "ns";
    metric ctx "bits.fold_multi_alloc_bytes.tage_l" (per iters fold_a) "B"
  | _ -> assert false

(* Core.run per design over the workload's two kernels, elaboration outside
   the timer. Returns TAGE-L's simulated instructions per second on the
   seeded kernel. *)
let core (ctx : Ctx.t) =
  let m = ctx.size.uarch_insns in
  let cells =
    List.concat_map
      (fun d ->
        List.filter_map
          (fun (e : Suite.entry) ->
            let cell = ref None in
            Ctx.attempt ctx ("core " ^ Phases.uarch_key d e) (fun () ->
                let perf, s, a =
                  Measure.repeat ~reps:ctx.size.layer_reps
                    ~prepare:(fun () ->
                      Gc.full_major ();
                      Cobra_uarch.Core.create ?decode:e.decode Cobra_uarch.Config.default (Designs.pipeline d)
                        (e.make ()))
                    (fun core -> Span.with_ "core.run" (fun () -> Cobra_uarch.Core.run core ~max_insns:m))
                in
                cell := Some (d, e, perf, s, a);
                Ctx.check_counters ctx (Phases.uarch_key d e) (Perf.counters perf));
            !cell)
          (Phases.uarch_entries ctx))
      Ctx.uarch_designs
  in
  let sum f l = List.fold_left (fun acc x -> acc +. f x) 0.0 l in
  let insns (_, _, (p : Perf.t), _, _) = float_of_int p.instructions in
  let count f (_, _, (p : Perf.t), _, _) = float_of_int (f p) in
  let pki f l = 1000.0 *. sum (count f) l /. sum insns l in
  List.iter
    (fun (d : Designs.t) ->
      let mine = List.filter (fun ((d' : Designs.t), _, _, _, _) -> d'.name = d.name) cells in
      if mine <> [] then begin
        let k = Ctx.key d in
        metric ctx ("core.ns_per_insn." ^ k) (1e9 *. sum (fun (_, _, _, s, _) -> s) mine /. sum insns mine) "ns";
        metric ctx ("core.alloc_bytes_per_insn." ^ k) (sum (fun (_, _, _, _, a) -> a) mine /. sum insns mine) "B";
        metric ctx ("core.ipc." ^ k) (sum insns mine /. sum (count (fun p -> p.cycles)) mine) "insns/cycle";
        metric ctx ("core.mpki." ^ k) (pki (fun p -> p.mispredicts) mine) "pki"
      end)
    Ctx.uarch_designs;
  if cells <> [] then begin
    metric ctx "core.fetch_packets_pki" (pki (fun p -> p.fetch_packets) cells) "pki";
    metric ctx "core.wrong_path_packets_pki" (pki (fun p -> p.wrong_path_packets) cells) "pki";
    metric ctx "core.flushes_pki" (pki (fun p -> p.flushes) cells) "pki"
  end;
  List.find_map
    (fun ((d : Designs.t), (e : Suite.entry), (p : Perf.t), s, _) ->
      if d.name = Designs.tage_l.name && e.name = ctx.w.name then Some (float_of_int p.instructions /. s) else None)
    cells

(* Stream generation of every kernel the benchmark uses. *)
let streams (ctx : Ctx.t) =
  let m = ctx.size.uarch_insns in
  List.iter
    (fun (name, make) ->
      let (), s, _ =
        Measure.repeat ~reps:ctx.size.layer_reps ~prepare:make (fun stream ->
            Span.with_ "workloads.stream" (fun () ->
                for _ = 1 to m do
                  ignore (stream ())
                done))
      in
      metric ctx ("workloads.stream_ns_per_insn." ^ name) (ns m s) "ns")
    (List.map (fun (w : Ctx.workload) -> (w.name, w.kernel ~seed:ctx.seed)) Ctx.workloads
    @ List.map (fun name -> (name, (Suite.find name).make)) [ "mcf"; "x264" ])

let runner (ctx : Ctx.t) =
  let module Cache = Cobra_runner.Cache in
  Unix.putenv "COBRA_CACHE_DIR" (Ctx.fresh_dir ctx "cache-layer");
  let perf = Perf.create () in
  perf.instructions <- 100_000;
  perf.mispredicts <- 1_234;
  let keys = List.init (20 * ctx.size.layer_reps) (fun i -> Cache.key [ "perfbench"; string_of_int i ]) in
  let stores = ref [] and loads = ref [] in
  let wall_us f = let r, s, _ = Measure.timed ~wall:true f in (r, 1e6 *. s) in
  Ctx.attempt ctx "cache store/load" (fun () ->
      List.iter
        (fun k ->
          let r, us = wall_us (fun () -> Span.with_ "cache.store" (fun () -> Cache.store k perf)) in
          stores := us :: !stores;
          Result.iter_error failwith r)
        keys;
      List.iter
        (fun k ->
          let r, us = wall_us (fun () -> Span.with_ "cache.load" (fun () -> Cache.load k)) in
          loads := us :: !loads;
          match r with
          | Some p when Perf.counters p = Perf.counters perf -> ()
          | _ -> failwith "a stored entry did not load back")
        keys;
      Ok ());
  Ctx.median_metric ctx "cache.store_us" "us" !stores;
  Ctx.median_metric ctx "cache.load_us" "us" !loads;
  let outcomes, s, _ =
    Measure.repeat ~wall:true ~reps:(4 * ctx.size.layer_reps) ~prepare:ignore (fun () ->
        Span.with_ "pool.map" (fun () -> Cobra_runner.Pool.map ~jobs:2 [ Fun.id; Fun.id ]))
  in
  Ctx.attempt ctx "pool.map" (fun () ->
      if List.for_all Result.is_ok outcomes then Ok () else Error "a no-op job failed");
  metric ctx "pool.map_ms.2" (1e3 *. s) "ms" ~note:"two no-op jobs on two domains"

(* The share by which spans slow [f]: calls with spans off and on,
   interleaved. *)
let overhead (ctx : Ctx.t) ?(reps = ctx.size.layer_reps) phase f =
  let off = ref [] and on = ref [] in
  for _ = 1 to max 3 reps do
    List.iter
      (fun (enabled, acc) ->
        Span.enabled := enabled;
        let (), s, _ = Measure.timed ~wall:true f in
        acc := s :: !acc)
      [ (false, off); (true, on) ]
  done;
  Span.enabled := true;
  let off = Measure.median !off and on = Measure.median !on in
  metric ctx ("trace.overhead_pct." ^ phase) (100.0 *. (on -. off) /. off) "%" ~note:"traced vs untraced"

(* One whole round of the request mix on a fresh daemon; then, on the live
   daemon, ping round trips and the tracing overhead of a cached request. *)
let serve (ctx : Ctx.t) =
  let path = Ctx.trace_path ctx in
  let reqs = Mix.plan ctx in
  let rtt = ref [] in
  let daemon = Daemon.launch ~cli:ctx.cli ~dir:(Ctx.fresh_dir ctx "serve") ~jobs:ctx.jobs in
  let outcomes =
    Fun.protect
      ~finally:(fun () -> Daemon.stop daemon)
      (fun () ->
        let r = Mix.round ctx ~index:0 reqs in
        List.iter (fun _ -> Mix.step ctx daemon r) reqs;
        for _ = 1 to 10 * ctx.size.layer_reps do
          let (), s, _ = Measure.timed ~wall:true (fun () -> Span.with_ "serve.ping" (fun () -> Daemon.ping daemon)) in
          rtt := (1e6 *. s) :: !rtt
        done;
        (match List.find_opt (fun (q : Mix.request) -> q.repeat) reqs with
        | Some q -> overhead ctx ~reps:(10 * ctx.size.layer_reps) "serve" (fun () -> ignore (Mix.serve_request ctx daemon ~trace:r.trace q))
        | None -> ());
        List.rev r.outcomes)
  in
  Mix.check_rounds ctx [ outcomes ];
  ctx.counts <- Mix.counts outcomes;
  Phases.serve_metrics ctx [ outcomes ];
  Ctx.median_metric ctx "serve.ping_rtt_us" "us" !rtt;
  let _, s, _ =
    Measure.repeat ~reps:(4 * ctx.size.layer_reps) ~prepare:ignore (fun () ->
        Span.with_ "serve.trace_digest" (fun () -> Digest.file path))
  in
  metric ctx "serve.trace_digest_ms" (1e3 *. s) "ms" ~note:"Digest.file of the trace";
  (match List.find_map (fun (o : Mix.outcome) -> List.nth_opt o.results 0) outcomes with
  | None -> Ctx.fail ctx "no serve result to parse and emit"
  | Some j ->
    let line = Json.to_string j in
    let iters = max 1 (ctx.size.micro_iters / 20) in
    let loop name f () () =
      Span.with_ name (fun () ->
          for _ = 1 to iters do
            ignore (Sys.opaque_identity (f ()))
          done)
    in
    (match
       Measure.interleaved ~reps:ctx.size.layer_reps
         [ loop "json.parse" (fun () -> Json.of_string line); loop "json.emit" (fun () -> Json.to_string j) ]
     with
    | [ (parse_s, _); (emit_s, _) ] ->
      metric ctx "json.parse_us.result" (1e6 *. per iters parse_s) "us";
      metric ctx "json.emit_us.result" (1e6 *. per iters emit_s) "us"
    | _ -> assert false));
  List.iter (fun (name, v) -> metric ctx name (float_of_int v) "count") ctx.counts

let run (ctx : Ctx.t) =
  Span.enabled := true;
  (match Span.with_ "bench.setup" (fun () -> Phases.setup ctx) with
  | [] -> ()
  | _ -> Ctx.median_metric ctx "writer.export_s" "s" (Span.durations "writer.export_stream"));
  let recs =
    Span.with_ "reader.load" (fun () -> Array.of_list (Reader.load ~limit:ctx.size.layer_branches (Ctx.trace_path ctx)))
  in
  Span.with_ "bench.reader" (fun () -> reader ctx);
  Span.with_ "bench.build" (fun () -> List.iter (build ctx) Ctx.setup_designs);
  let replays = Span.with_ "bench.replay" (fun () -> List.map (fun d -> (d, replay ctx recs d)) Ctx.replay_designs) in
  Span.with_ "bench.snapshot" (fun () -> List.iter (snapshot ctx recs) [ Designs.tourney; Designs.tage_l ]);
  Span.with_ "bench.components" (fun () -> components ctx recs);
  Span.with_ "bench.bits" (fun () -> bits ctx);
  let uarch_tage = Span.with_ "bench.core" (fun () -> core ctx) in
  Span.with_ "bench.streams" (fun () -> streams ctx);
  Span.with_ "bench.runner" (fun () -> runner ctx);
  Span.with_ "bench.serve" (fun () -> serve ctx);
  let path = Ctx.trace_path ctx in
  overhead ctx "replay" (fun () ->
      Span.with_ "replay.run_design" (fun () ->
          ignore (Replay.run_design ~engine:`Compiled Designs.gshare_only ~path)));
  overhead ctx "uarch" (fun () ->
      Span.with_ "experiment.run" (fun () ->
          ignore (Cobra_eval.Experiment.run ~insns:ctx.size.uarch_insns Designs.tage_l (List.hd (Phases.uarch_entries ctx)))));
  (* two derived lines, reported against the ROADMAP targets, not gated *)
  (match (List.assq_opt Designs.tage_l replays, uarch_tage) with
  | Some ((r : Replay.result), s), Some uarch ->
    metric ctx "derived.tage_l_replay_x_uarch" (float_of_int r.instructions /. s /. uarch) "x"
      ~note:(Printf.sprintf "compiled replay / uarch, insns/s on %s; ROADMAP target 10x" ctx.w.name)
  | _ -> ());
  Printf.printf "derived: compiled replay allocates %s B/branch; ROADMAP target 0\n"
    (String.concat ", "
       (List.filter_map
          (fun (name, v, _) ->
            if String.starts_with ~prefix:"replay.alloc_bytes_per_branch.compiled." name then
              Some (Printf.sprintf "%s %.0f" (Filename.extension name) v)
            else None)
          (List.rev ctx.metrics)));
  Printf.printf "%d spans; self time by layer (s): %s\n" (Span.count ())
    (String.concat ", " (List.map (fun (l, s) -> Printf.sprintf "%s %.3f" l s) (Span.self_times ())))
