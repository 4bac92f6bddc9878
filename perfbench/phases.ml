(* The untraced run: set-up, then the replay, uarch and serve phases
   interleaved until the budget is spent, then the end-to-end metrics. *)

open Cobra_trace_replay
module Designs = Cobra_eval.Designs
module Perf = Cobra_uarch.Perf
module Suite = Cobra_workloads.Suite

let export (ctx : Ctx.t) =
  Span.with_ "writer.export_stream" (fun () ->
      Writer.export_stream ~max_branches:ctx.size.trace_branches ~path:(Ctx.trace_path ctx)
        (ctx.w.kernel ~seed:ctx.seed ()))

(* One set-up as a user pays it: export the trace, elaborate and compile
   the designs, start a daemon and wait for its first pong. *)
let setup_once (ctx : Ctx.t) i =
  let dir = Ctx.fresh_dir ctx (Printf.sprintf "setup-%d" i) in
  let t0 = Measure.now () in
  let branches, _ = export ctx in
  if branches <> ctx.size.trace_branches then
    failwith (Printf.sprintf "exported %d branches, wanted %d" branches ctx.size.trace_branches);
  List.iter (fun d -> ignore (Span.with_ "pipeline.elaborate" (fun () -> Designs.pipeline d))) Ctx.setup_designs;
  List.iter (fun d -> ignore (Span.with_ "engine.compile" (fun () -> Replay.compiled d))) Ctx.setup_designs;
  let daemon = Span.with_ "serve.start" (fun () -> Daemon.launch ~cli:ctx.cli ~dir ~jobs:ctx.jobs) in
  let secs = Measure.now () -. t0 in
  Daemon.stop daemon;
  secs

(* The seconds of every set-up that succeeded. *)
let setup (ctx : Ctx.t) =
  let secs = ref [] in
  for i = 1 to ctx.size.setups do
    Ctx.attempt ctx "setup" (fun () ->
        secs := setup_once ctx i :: !secs;
        Ok ())
  done;
  !secs

let uarch_entries (ctx : Ctx.t) =
  [
    {
      Suite.name = ctx.w.name;
      description = Printf.sprintf "%s, seed %d" ctx.w.name ctx.seed;
      make = ctx.w.kernel ~seed:ctx.seed;
      decode = None;
    };
    Suite.find ctx.w.spec;
  ]

let uarch_key (d : Designs.t) (e : Suite.entry) = Printf.sprintf "uarch/%s/%s" d.name e.name

(* With --inject-mismatch the first interpreted result is corrupted before
   it is checked: the self-check's proof that a mismatch surfaces as a
   failed operation. *)
let injected = ref false

(* One key per design: the compiled and the interpreted engine must agree. *)
let check_replay (ctx : Ctx.t) ~engine (d : Designs.t) r =
  let cs = Mix.replay_counters r in
  let cs =
    if ctx.inject_mismatch && (not !injected) && engine = `Interpreted then begin
      injected := true;
      List.map (fun (c, v) -> (c, if c = "mispredicts" then v + 1 else v)) cs
    end
    else cs
  in
  Ctx.check_counters ctx ("replay/" ^ d.name) cs

(* ---- the timed loop --------------------------------------------------- *)

(* A phase is a cycle of operations, each one sample. Every turn of the
   loop gives each phase a slice of wall time, at least one operation, so
   all phases sample the whole measuring window. *)
type phase = { ops : (unit -> unit) array; mutable next : int; mutable turns : int }

let phase ops = { ops = Array.of_list ops; next = 0; turns = 0 }

let run_slice ~slice_s p =
  let t0 = Measure.now () in
  let rec go () =
    p.ops.(p.next) ();
    p.next <- (p.next + 1) mod Array.length p.ops;
    if p.next = 0 then p.turns <- p.turns + 1;
    if Measure.now () -. t0 < slice_s then go ()
  in
  go ()

let add tbl k v = Hashtbl.replace tbl k (v :: Option.value (Hashtbl.find_opt tbl k) ~default:[])
let all tbl k = Option.value (Hashtbl.find_opt tbl k) ~default:[]

let replay_name (d : Designs.t) engine =
  Printf.sprintf "replay_%s_branches_per_s.%s" (Replay.engine_name engine) (Ctx.key d)

let replay_phase (ctx : Ctx.t) rates =
  let path = Ctx.trace_path ctx in
  phase
    (List.concat_map
       (fun (d : Designs.t) ->
         List.map
           (fun engine () ->
             let name = replay_name d engine in
             Ctx.attempt ctx name (fun () ->
                 let r, dt, _ = Measure.sample (fun () -> Replay.run_design ~engine d ~path) in
                 add rates name (float_of_int r.branches /. dt);
                 check_replay ctx ~engine d r))
           Ctx.engines)
       Ctx.replay_designs)

(* Seconds per sample of each cell, and each cell's instruction count. *)
let uarch_phase (ctx : Ctx.t) secs insns =
  phase
    (List.concat_map
       (fun e ->
         List.map
           (fun d () ->
             let k = uarch_key d e in
             Ctx.attempt ctx k (fun () ->
                 let r, dt, _ =
                   Measure.sample (fun () -> Cobra_eval.Experiment.run ~insns:ctx.size.uarch_insns d e)
                 in
                 add secs k dt;
                 Hashtbl.replace insns k r.perf.instructions;
                 Ctx.check_counters ctx k (Perf.counters r.perf)))
           Ctx.uarch_designs)
       (uarch_entries ctx))

(* Plays the request mix on [daemon] one request per operation, round
   after round. Finished rounds go to [rounds], newest first, as their
   outcomes in request order. The returned [drain] plays the round in
   flight to its end. *)
let serve_phase (ctx : Ctx.t) daemon rounds =
  let reqs = Mix.plan ctx in
  let current = ref None in
  let finish (r : Mix.round) =
    current := None;
    rounds := List.rev r.outcomes :: !rounds
  in
  let op () =
    match !current with
    | Some (r : Mix.round) when r.pending = [] -> finish r
    | Some r -> Mix.step ctx daemon r
    | None ->
      let index = List.length !rounds in
      Ctx.attempt ctx (Printf.sprintf "serve round %d" index) (fun () ->
          current := Some (Mix.round ctx ~index reqs);
          Ok ())
  in
  let drain () =
    Option.iter
      (fun (r : Mix.round) ->
        List.iter (fun _ -> Mix.step ctx daemon r) r.pending;
        finish r)
      !current
  in
  (phase [ op ], drain)

(* Each serve statistic is taken per round, and the best round reported:
   a round is one sample of the whole mix (Ctx.best_metric). Round-trip
   latencies between two processes follow the host's load over minutes,
   beyond what a best round can hide, so untraced runs only print them
   ([~record:false]); the traced run records them as per-layer metrics. *)
let serve_metrics ?record (ctx : Ctx.t) rounds =
  let ms (o : Mix.outcome) = 1000.0 *. o.latency_s in
  let cached os = List.filter_map (fun o -> if Mix.from_cache o then Some (ms o) else None) os in
  let sweeps os = List.filter_map (fun o -> if Mix.is_sweep o && not (Mix.from_cache o) then Some (ms o) else None) os in
  let per_round f = List.filter_map f rounds in
  let stat f pick os = match pick os with [] -> None | xs -> Some (f xs) in
  let n_cached = match rounds with os :: _ -> List.length (cached os) | [] -> 0 in
  let p = Measure.tail_percentile n_cached in
  let per = Printf.sprintf "; %d cached requests a round" n_cached in
  Ctx.best_metric ctx ?record ~higher:false "serve_cached_p50_ms" "ms" ~note:per (per_round (stat Measure.median cached));
  Ctx.best_metric ctx ?record ~higher:false "serve_cached_tail_ms" "ms"
    ~note:(Printf.sprintf "; p%g%s" p per)
    (per_round (stat (Measure.percentile p) cached));
  Ctx.best_metric ctx ?record ~higher:false "serve_sweep_p50_ms" "ms" (per_round (stat Measure.median sweeps));
  let points os =
    let busy = List.fold_left (fun acc (o : Mix.outcome) -> acc +. o.latency_s) 0.0 os in
    let results = List.fold_left (fun acc (o : Mix.outcome) -> acc + List.length o.results) 0 os in
    if busy > 0.0 then Some (float_of_int results /. busy) else None
  in
  Ctx.best_metric ctx ?record ~higher:true "serve_points_per_s" "points/s" (per_round points)

let run (ctx : Ctx.t) =
  (match setup ctx with [] -> () | secs -> Ctx.median_metric ctx "setup_s" "s" secs);
  let rates = Hashtbl.create 8 and secs = Hashtbl.create 8 and insns = Hashtbl.create 8 in
  let replay = replay_phase ctx rates and uarch = uarch_phase ctx secs insns in
  (* One pass of every operation before the window, and the high-water RSS
     after it: later samples add no new kind of work, and how many fit in
     the window depends on the machine. *)
  List.iter (fun p -> Array.iter (fun op -> op ()) p.ops) [ replay; uarch ];
  Ctx.metric ctx "peak_rss_mb" (Measure.peak_rss_mb "self") "MB"
    ~note:"benchmark process after one pass of every replay and uarch operation";
  let rounds = ref [] in
  let daemon = Daemon.launch ~cli:ctx.cli ~dir:(Ctx.fresh_dir ctx "serve") ~jobs:ctx.jobs in
  Fun.protect
    ~finally:(fun () -> Daemon.stop daemon)
    (fun () ->
      let serve, drain = serve_phase ctx daemon rounds in
      let phases = [ replay; uarch; serve ] in
      let slice_s = Float.min 1.0 (ctx.seconds /. 20.0) in
      let deadline = Measure.now () +. ctx.seconds in
      (* past the window only to reach the fewest samples, and for at most
         one more window, so that failing operations still end the run *)
      let short () = List.exists (fun p -> p.turns < ctx.size.min_rounds) phases || !rounds = [] in
      Fun.protect ~finally:drain (fun () ->
          while
            let now = Measure.now () in
            now < deadline || (short () && now < deadline +. ctx.seconds)
          do
            List.iter (run_slice ~slice_s) phases
          done);
      Ctx.metric ctx "serve_peak_rss_mb" (Daemon.peak_rss_mb daemon) "MB" ~note:"the daemon, after every round");
  List.iter
    (fun d ->
      List.iter
        (fun e -> Ctx.best_metric ctx ~higher:true (replay_name d e) "branches/s" (all rates (replay_name d e)))
        Ctx.engines)
    Ctx.replay_designs;
  (* every cell at its best speed: simulated instructions over host seconds *)
  let cells = List.of_seq (Hashtbl.to_seq_keys insns) in
  if cells <> [] then begin
    let total f = List.fold_left (fun acc k -> acc +. f k) 0.0 cells in
    let fastest k = Array.get (Measure.sorted (all secs k)) 0 in
    Ctx.metric ctx "uarch_insns_per_s"
      (total (fun k -> float_of_int (Hashtbl.find insns k)) /. total fastest)
      "insns/s"
      ~note:
        (Printf.sprintf "%d cells, each the best of %d+ samples" (List.length cells)
           (List.fold_left (fun acc k -> min acc (List.length (all secs k))) max_int cells))
  end;
  let rounds = List.rev !rounds in
  Mix.check_rounds ctx rounds;
  Option.iter (fun first -> ctx.counts <- Mix.counts first) (List.nth_opt rounds 0);
  serve_metrics ~record:false ctx rounds
