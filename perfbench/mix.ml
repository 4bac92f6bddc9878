(* The serve phase's seeded request mix, played on a [cobra serve] daemon
   through one closed-loop connection, and the checks on its answers.

   A round is the whole mix on one trace: cold windowed sweeps
   (a new warmup boundary each: warmup replay plus checkpoint store), warm
   sweeps (the newest boundary with new windows: restore plus window
   replay), capped replays, and exact repeats of earlier requests, which
   the daemon answers from its on-disk cache. Distinct boundaries, window
   sizes and caps keep every original request a cache miss.

   A sweep has the shape of bench perf_snapshot's (a warmup of 3/5 of the
   trace, then 8 windows of 1/20 each) scaled to the run's n-branch trace:
   warmups from [0.5n, 0.6n) and windows from [0.04n, 0.05n), so every
   sweep ends inside the trace. *)

open Cobra_trace_replay
module Designs = Cobra_eval.Designs
module Json = Cobra_stats.Json

type op =
  | Sweep of { warmup : int; window : int; warm : bool }
      (** windowed sweep over both sweep designs; [warm] when an earlier
          sweep of the round stored the boundary *)
  | Capped of { design : Designs.t; cap : int }  (** replay of the first [cap] branches *)

type request = { rid : string; op : op; repeat : bool }

let windows_per_sweep = 8

let request_line ~trace req =
  let trace = Json.String (Filename.concat (Sys.getcwd ()) trace) in
  let fields =
    match req.op with
    | Sweep { warmup; window; _ } ->
      [
        ("op", Json.String "sweep");
        ("designs", Json.List (List.map (fun (d : Designs.t) -> Json.String d.name) Ctx.sweep_designs));
        ("traces", Json.List [ trace ]);
        ("warmup_branches", Json.Int warmup);
        ("window_branches", Json.Int window);
        ("windows", Json.Int windows_per_sweep);
      ]
    | Capped { design; cap } ->
      [
        ("op", Json.String "replay");
        ("design", Json.String design.name);
        ("trace", trace);
        ("max_branches", Json.Int cap);
      ]
  in
  Json.to_string (Json.Obj (("id", Json.String req.rid) :: fields))

(* [k] values in [lo, hi), one from each of [k] equal strata, in seeded
   order: every seed draws distinct values with the same spread, so the
   mix's total work hardly depends on the seed. *)
let stratified rng k lo hi =
  let a = Array.init k (fun i -> lo + (((2 * i) + 1) * (hi - lo) / (2 * k)) + Random.State.int rng (max 1 ((hi - lo) / (4 * k)))) in
  for i = k - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

let plan (ctx : Ctx.t) =
  let n = ctx.size.trace_branches in
  let rng = Random.State.make [| ctx.seed; 0x5e7e |] in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let cold, warm, capped, repeats = ctx.size.mix in
  let boundaries = ref (stratified rng cold (n / 2) (3 * n / 5)) in
  let windows = ref (stratified rng (cold + warm) (n / 25) (n / 20)) in
  let caps = ref (stratified rng capped (n / 20) (n / 10)) in
  let next l = match !l with x :: rest -> l := rest; x | [] -> assert false in
  let left = [| cold; warm; capped; repeats |] in
  let used = ref [] and sweeps = ref [] and replays = ref [] in
  let rec go k acc =
    let ready =
      List.filter
        (fun i -> left.(i) > 0 && match i with 1 -> !used <> [] | 3 -> !sweeps <> [] | _ -> true)
        [ 0; 1; 2; 3 ]
    in
    if ready = [] then List.rev acc
    else begin
      let i = pick ready in
      left.(i) <- left.(i) - 1;
      let rid = Printf.sprintf "r%d" k in
      let req =
        match i with
        | 0 ->
          let warmup = next boundaries in
          used := warmup :: !used;
          { rid; op = Sweep { warmup; window = next windows; warm = false }; repeat = false }
        | 1 ->
          (* The newest boundary: the latest cold sweep stored it and no
             store came after, so it is resident in the daemon's LRU warm
             cache whatever its capacity, and the sweep restores. *)
          { rid; op = Sweep { warmup = List.hd !used; window = next windows; warm = true }; repeat = false }
        | 2 -> { rid; op = Capped { design = pick Ctx.sweep_designs; cap = next caps }; repeat = false }
        | _ ->
          (* three repeats of sweeps to one of a capped replay, whatever the seed *)
          let pool = if left.(3) mod 4 = 0 && !replays <> [] then !replays else !sweeps in
          { (pick pool) with rid; repeat = true }
      in
      (match req with
      | { repeat = true; _ } -> ()
      | { op = Sweep _; _ } -> sweeps := req :: !sweeps
      | { op = Capped _; _ } -> replays := req :: !replays);
      go (k + 1) (req :: acc)
    end
  in
  go 1 []

type outcome = {
  req : request;
  latency_s : float;
  results : Json.t list;  (** the request's "result" events *)
  evictions : int option;  (** warm_evictions of the sweep summary *)
}

let flag name j = Json.member name j = Some (Json.Bool true)
let from_cache o = List.for_all (flag "cached") o.results
let is_sweep o = match o.req.op with Sweep _ -> true | Capped _ -> false

(* One request, timed on the wall clock from send to "done". An "error"
   event, a missing result or a timeout fails the request. *)
let serve_request (ctx : Ctx.t) daemon ~trace req =
  let out = ref None in
  Ctx.attempt ctx ("serve request " ^ req.rid) (fun () ->
      let events, dt, _ =
        Measure.timed ~wall:true (fun () ->
            Span.with_ ~rid:req.rid "serve.request" (fun () -> Daemon.request daemon (request_line ~trace req)))
      in
      let results = List.filter (fun j -> Daemon.event j = "result") events in
      let expected =
        match req.op with Sweep _ -> List.length Ctx.sweep_designs * windows_per_sweep | Capped _ -> 1
      in
      match List.find_opt (fun j -> Daemon.event j = "error") events with
      | Some e -> Error (Json.to_string e)
      | None when List.length results <> expected ->
        Error (Printf.sprintf "%d result events, expected %d" (List.length results) expected)
      | None ->
        let evictions =
          List.find_map
            (fun j ->
              if Daemon.event j = "sweep_summary" then Option.bind (Json.member "warm_evictions" j) Json.to_int
              else None)
            events
        in
        out := Some { req; latency_s = dt; results; evictions };
        Ok ());
  !out

(* ---- rounds, played one request at a time ---------------------------- *)

(* A round plays the whole mix over its own trace file: the workload's
   trace with [index] more branches at its end. Every request reads only
   the common prefix, so every round must answer alike, but the file's
   digest differs, so no round finds another's results or checkpoints in
   the daemon's caches. *)
type round = {
  trace : string;
  mutable pending : request list;
  mutable outcomes : outcome list;  (** newest first *)
}

let round (ctx : Ctx.t) ~index reqs =
  let trace = Filename.concat ctx.work (Printf.sprintf "trace-%d.cobt" index) in
  let branches, _ =
    Writer.export_stream ~max_branches:(ctx.size.trace_branches + index) ~path:trace (ctx.w.kernel ~seed:ctx.seed ())
  in
  if branches <> ctx.size.trace_branches + index then failwith "the kernel ended before the round's trace";
  { trace; pending = reqs; outcomes = [] }

let step (ctx : Ctx.t) daemon r =
  match r.pending with
  | [] -> ()
  | req :: rest ->
    r.pending <- rest;
    Option.iter (fun o -> r.outcomes <- o :: r.outcomes) (serve_request ctx daemon ~trace:r.trace req)

(* ---- checks and counts ----------------------------------------------- *)

let counter_names = [ "instructions"; "branches"; "cond_branches"; "mispredicts"; "cond_mispredicts" ]

let replay_counters (r : Replay.result) =
  List.combine counter_names [ r.instructions; r.branches; r.cond_branches; r.mispredicts; r.cond_mispredicts ]

let event_counters j = List.map (fun c -> (c, Json.int_member c j ~default:(-1))) counter_names

(* Every result against an in-process compiled replay of the same region:
   the windows after a warmup boundary (one warmup per design and boundary,
   restored per window size), or the capped run; and every sweep that
   replayed must have restored from the warm cache exactly when it was
   planned warm. Checked after timing. *)
let check (ctx : Ctx.t) outcomes =
  let path = Ctx.trace_path ctx in
  let warm = Hashtbl.create 8 and expected = Hashtbl.create 16 in
  let windows (d : Designs.t) ~warmup ~window =
    let eng, ck =
      match Hashtbl.find_opt warm (d.name, warmup) with
      | Some v -> v
      | None ->
        let eng = Replay.compiled d in
        let ck, _ =
          Reader.with_file path (fun rd ->
              Replay.warmup_compiled ~branches:warmup ~design:d.name ~trace:path eng rd)
        in
        Hashtbl.replace warm (d.name, warmup) (eng, ck);
        (eng, ck)
    in
    Reader.with_file path (fun rd ->
        Replay.restore_compiled eng rd ck;
        List.init windows_per_sweep (fun _ ->
            replay_counters (snd (Replay.warmup_compiled ~branches:window ~design:d.name ~trace:path eng rd))))
  in
  let expect (d : Designs.t) op =
    let k = (d.name, op) in
    match Hashtbl.find_opt expected k with
    | Some v -> v
    | None ->
      let v =
        match op with
        | `Sweep (warmup, window) -> windows d ~warmup ~window
        | `Capped cap -> [ replay_counters (Replay.run_design ~engine:`Compiled ~max_branches:cap d ~path) ]
      in
      Hashtbl.replace expected k v;
      v
  in
  List.iter
    (fun o ->
      let check j =
        let design = Json.str_member "design" j ~default:"" in
        let d = List.find (fun (d : Designs.t) -> d.name = design) Ctx.sweep_designs in
        let want =
          match o.req.op with
          | Sweep { warmup; window; _ } ->
            List.nth (expect d (`Sweep (warmup, window))) (Json.int_member "window" j ~default:0)
          | Capped { cap; _ } -> List.hd (expect d (`Capped cap))
        in
        let got = event_counters j in
        match o.req.op with
        | _ when got <> want ->
          Error (Printf.sprintf "%s: served %s, in-process replay %s" design (Ctx.show got) (Ctx.show want))
        | Sweep { warm; _ } when (not (flag "cached" j)) && flag "warm_cached" j <> warm ->
          Error (Printf.sprintf "%s: warm_cached is %b on a sweep planned %s" design (not warm) (if warm then "warm" else "cold"))
        | _ -> Ok ()
      in
      match List.find_map (fun j -> match check j with Ok () -> None | Error m -> Some m) o.results with
      | None -> ()
      | Some m -> Ctx.fail ctx (Printf.sprintf "serve request %s: %s" o.req.rid m)
      | exception e -> Ctx.fail ctx (Printf.sprintf "serve request %s: %s" o.req.rid (Printexc.to_string e)))
    outcomes

(* What a request's results say, without timestamps and wall-clock times:
   every round must say the same. *)
let canonical o =
  List.map
    (fun j -> List.map (fun k -> (k, Json.member k j)) ([ "design"; "window"; "cached"; "warm_cached" ] @ counter_names))
    o.results

(* The first finished round is checked against in-process replays; every
   later one must answer each request as the first did. *)
let check_rounds (ctx : Ctx.t) = function
  | [] -> ()
  | first :: rest ->
    check ctx first;
    List.iter
      (List.iter (fun o ->
           match List.find_opt (fun f -> f.req.rid = o.req.rid) first with
           | Some f when canonical f <> canonical o ->
             Ctx.fail ctx (Printf.sprintf "serve request %s answered differently across rounds" o.req.rid)
           | _ -> ()))
      rest

(* A point is one design of a sweep, or a capped replay; its windows share
   their cache flags, so window 0 stands for the point. Exact for a seed. *)
let counts outcomes =
  let points =
    List.concat_map
      (fun o -> List.filter_map (fun j -> if Json.int_member "window" j ~default:0 = 0 then Some (o, j) else None) o.results)
      outcomes
  in
  let warm = List.filter (fun (o, j) -> is_sweep o && not (flag "cached" j)) points in
  let count p l = List.length (List.filter p l) in
  [
    ("serve.result_cache_hits", count (fun (_, j) -> flag "cached" j) points);
    ("serve.result_lookups", List.length points);
    ("serve.warm_cache_hits", count (fun (_, j) -> flag "warm_cached" j) warm);
    ("serve.warm_lookups", List.length warm);
    ("serve.warm_evictions", List.fold_left (fun acc o -> max acc (Option.value o.evictions ~default:0)) 0 outcomes);
  ]
