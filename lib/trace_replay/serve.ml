module Json = Cobra_stats.Json

type config = {
  socket : string;
  jobs : int;
  timeout_s : float option;
  log : (string -> unit) option;
  extra_ops : (string * (config -> (string -> unit) -> ?id:string -> Json.t -> unit)) list;
}

let default_config ~socket =
  {
    socket;
    jobs = Cobra_runner.Pool.default_jobs ();
    timeout_s = None;
    log = None;
    extra_ops = [];
  }

(* ---- response emission ------------------------------------------------ *)

let event_obj ?id ~event fields =
  let base =
    [ ("ts", Json.Float (Unix.gettimeofday ())); ("label", Json.String "serve") ]
  in
  let id = match id with Some i -> [ ("id", Json.String i) ] | None -> [] in
  Json.Obj ((base @ id) @ (("event", Json.String event) :: fields))

let emit cfg send ?id ~event fields =
  let line = Json.to_string (event_obj ?id ~event fields) in
  (match cfg.log with Some f -> (try f line with _ -> ()) | None -> ());
  send line

let interval_fields p =
  match Cobra_stats.Interval.point_to_json p with
  | Json.Obj fields -> fields
  | j -> [ ("point", j) ]

let result_fields ~cached (r : Replay.result) =
  [
    ("design", Json.String r.Replay.design);
    ("trace", Json.String r.Replay.trace);
    ("instructions", Json.Int r.Replay.instructions);
    ("branches", Json.Int r.Replay.branches);
    ("cond_branches", Json.Int r.Replay.cond_branches);
    ("mispredicts", Json.Int r.Replay.mispredicts);
    ("cond_mispredicts", Json.Int r.Replay.cond_mispredicts);
    ("mpki", Json.Float (Replay.mpki r));
    ("accuracy", Json.Float (Replay.accuracy r));
    ("elapsed_s", Json.Float r.Replay.elapsed_s);
    ("cached", Json.Bool cached);
  ]

(* ---- request decoding ------------------------------------------------- *)

type point_opts = { max_branches : int option; max_insns : int option }

let opt_int name j =
  match Json.member name j with
  | Some (Json.Int n) when n > 0 -> Some n
  | Some Json.Null | None -> None
  | Some (Json.Int _) -> failwith (name ^ " must be positive")
  | Some _ -> failwith (name ^ " must be an integer")

let bool_member name j =
  match Json.member name j with Some (Json.Bool b) -> b | _ -> false

let str_list name j =
  match Json.member name j with
  | Some (Json.List l) ->
    List.map
      (fun e ->
        match Json.to_str e with
        | Some s -> s
        | None -> failwith (name ^ " must be a list of strings"))
      l
  | Some Json.Null | None -> []
  | Some _ -> failwith (name ^ " must be a list of strings")

(* Engine selection: serve defaults to the compiled engine — sweeps are the
   throughput-critical path, and the compiled_twin conformance checks pin
   its results bit-identical to the interpreter — while "engine":
   "interpreted" forces the reference loop. Stats runs always interpret
   (the collector attaches to a Pipeline). *)
let engine_of_req req : Replay.engine_kind =
  match Json.member "engine" req with
  | None | Some Json.Null -> `Compiled
  | Some (Json.String s) -> (
    try Replay.engine_of_string s
    with Invalid_argument _ ->
      failwith (Printf.sprintf "unknown engine %S (know: interpreted, compiled)" s))
  | Some _ -> failwith "engine must be a string"

let engine_field (engine : Replay.engine_kind) =
  ("engine", Json.String (Replay.engine_name engine))

let find_design name =
  if String.equal name Cobra_eval.Designs.gshare_only.Cobra_eval.Designs.name then
    Cobra_eval.Designs.gshare_only
  else
    match Cobra_eval.Designs.find name with
    | d -> d
    | exception Not_found ->
      let known =
        Cobra_eval.Designs.gshare_only :: Cobra_eval.Designs.all
        |> List.map (fun d -> d.Cobra_eval.Designs.name)
        |> String.concat ", "
      in
      failwith (Printf.sprintf "unknown design %S (know: %s)" name known)

(* ---- cached replay ---------------------------------------------------- *)

let cache_key (d : Cobra_eval.Designs.t) ~trace_digest opts =
  Cobra_runner.Cache.key
    [
      "btrace-replay";
      "v1";
      "design:" ^ d.Cobra_eval.Designs.name;
      "topology:" ^ Cobra.Topology.spec (d.Cobra_eval.Designs.make ());
      "pipeline:" ^ Cobra.Pipeline.config_spec d.Cobra_eval.Designs.pipeline_config;
      "trace:" ^ trace_digest;
      "branches:" ^ string_of_int (Option.value opts.max_branches ~default:0);
      "insns:" ^ string_of_int (Option.value opts.max_insns ~default:0);
    ]

let result_of_perf ~design ~trace (p : Cobra_uarch.Perf.t) =
  {
    Replay.design;
    trace;
    instructions = p.Cobra_uarch.Perf.instructions;
    branches = p.Cobra_uarch.Perf.branches;
    cond_branches = p.Cobra_uarch.Perf.cond_branches;
    mispredicts = p.Cobra_uarch.Perf.mispredicts;
    cond_mispredicts = p.Cobra_uarch.Perf.cond_mispredicts;
    elapsed_s = 0.0;
  }

(* Replay one (design, trace) point, answering repeats from the
   content-addressed cache. Returns the result and whether it was a hit.
   The cache key is engine-independent: compiled and interpreted counters
   are certified bit-identical, so either engine's result answers both. *)
let cached_replay cfg ?(use_cache = true) ?(engine = `Compiled)
    (d : Cobra_eval.Designs.t) ~trace opts =
  if not (Sys.file_exists trace) then failwith ("no such trace file: " ^ trace);
  let deadline =
    Option.map (fun s -> Unix.gettimeofday () +. s) cfg.timeout_s
  in
  let use_cache = use_cache && Cobra_runner.Cache.enabled () in
  let key =
    if use_cache then Some (cache_key d ~trace_digest:(Digest.to_hex (Digest.file trace)) opts)
    else None
  in
  match Option.bind key Cobra_runner.Cache.load with
  | Some perf ->
    (result_of_perf ~design:d.Cobra_eval.Designs.name ~trace perf, true)
  | None ->
    let r =
      Replay.run_design ?max_branches:opts.max_branches ?max_insns:opts.max_insns
        ?deadline ~engine d ~path:trace
    in
    if r.Replay.branches = 0 then
      failwith
        (Printf.sprintf "trace %s contains no branch records (empty or header-only file)"
           trace);
    (match key with
    | Some k -> (
      match Cobra_runner.Cache.store k (Replay.to_perf r) with
      | Ok () -> ()
      | Error _ -> () (* cache is an optimisation; the result still flows *))
    | None -> ());
    (r, false)

(* ---- warmup-snapshot reuse -------------------------------------------- *)

(* Warm pipeline state is kept per (design, trace digest, warmup length),
   keyed by the same content-addressing recipe as the on-disk result cache:
   the first windowed sweep over a trace pays the warmup replay once, every
   later sweep point restores the checkpoint with one memcpy per region.
   The table is process-local but a serve daemon is long-lived and a
   checkpoint slab is the whole design's state (tens of KB per point), so
   the table is a bounded LRU: COBRA_WARM_CACHE entries (default 64), the
   least-recently-touched checkpoint evicted past the cap, evictions
   counted into the sweep telemetry. The per-window counters additionally
   flow through the on-disk Perf cache so repeated sweeps skip the replay
   entirely. *)
type warm_entry = { we_ck : Replay.checkpoint; mutable we_tick : int }

let warm_cache : (string, warm_entry) Hashtbl.t = Hashtbl.create 16
let warm_mutex = Mutex.create ()
let warm_tick = ref 0
let warm_evictions = ref 0

(* Read per store, not once at startup, so a test (or an operator bouncing
   a daemon's memory budget) can flip the knob at runtime. *)
let warm_capacity () = Cobra_util.Env.int_var ~min:1 "COBRA_WARM_CACHE" ~default:64

let warm_cache_stats () =
  Mutex.lock warm_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock warm_mutex)
    (fun () -> (Hashtbl.length warm_cache, !warm_evictions))

let warm_key (d : Cobra_eval.Designs.t) ~trace_digest ~warmup_branches =
  Cobra_runner.Cache.hex
    (Cobra_runner.Cache.key
       [
         "btrace-warm";
         "v1";
         "design:" ^ d.Cobra_eval.Designs.name;
         "topology:" ^ Cobra.Topology.spec (d.Cobra_eval.Designs.make ());
         "pipeline:" ^ Cobra.Pipeline.config_spec d.Cobra_eval.Designs.pipeline_config;
         "trace:" ^ trace_digest;
         "warmup:" ^ string_of_int warmup_branches;
       ])

let warm_find k =
  Mutex.lock warm_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock warm_mutex)
    (fun () ->
      match Hashtbl.find_opt warm_cache k with
      | None -> None
      | Some e ->
        incr warm_tick;
        e.we_tick <- !warm_tick;
        Some e.we_ck)

let warm_store k ck =
  Mutex.lock warm_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock warm_mutex)
    (fun () ->
      incr warm_tick;
      Hashtbl.replace warm_cache k { we_ck = ck; we_tick = !warm_tick };
      let cap = warm_capacity () in
      while Hashtbl.length warm_cache > cap do
        (* the table is tiny (the cap bounds it); a linear scan per
           eviction beats maintaining an ordered index under the mutex *)
        let victim =
          Hashtbl.fold
            (fun k (e : warm_entry) acc ->
              match acc with
              | Some (_, t) when t <= e.we_tick -> acc
              | _ -> Some (k, e.we_tick))
            warm_cache None
        in
        match victim with
        | Some (vk, _) ->
          Hashtbl.remove warm_cache vk;
          incr warm_evictions
        | None -> assert false (* length > cap >= 1: the table is non-empty *)
      done)

type windowed_opts = {
  warmup_branches : int;
  window_branches : int;
  windows : int;
  verify : bool;
}

let window_cache_key (d : Cobra_eval.Designs.t) ~trace_digest wopts ~window =
  Cobra_runner.Cache.key
    [
      "btrace-replay-window";
      "v1";
      "design:" ^ d.Cobra_eval.Designs.name;
      "topology:" ^ Cobra.Topology.spec (d.Cobra_eval.Designs.make ());
      "pipeline:" ^ Cobra.Pipeline.config_spec d.Cobra_eval.Designs.pipeline_config;
      "trace:" ^ trace_digest;
      "warmup:" ^ string_of_int wopts.warmup_branches;
      "window_branches:" ^ string_of_int wopts.window_branches;
      "window:" ^ string_of_int window;
    ]

(* Replay [windows] consecutive measurement windows of a trace behind a
   shared warmup, reusing the warm snapshot when one is cached. [engine]
   picks the simulator (default compiled — one engine is compiled per
   point and fed the cached warm checkpoint, whose slab layout both
   engines share). With [verify] the whole region is recomputed on a
   fresh {e interpreted} pipeline without any snapshot involved and every
   window's counters are required to match bit-for-bit — under a compiled
   engine that one flag certifies both the snapshot handoff and the
   staged compilation. Returns (per-window results, warm checkpoint came
   from the cache, windows answered from the on-disk cache). *)
let windowed_replay cfg ?(use_cache = true) ?(engine = `Compiled)
    (d : Cobra_eval.Designs.t) ~trace wopts =
  if not (Sys.file_exists trace) then failwith ("no such trace file: " ^ trace);
  let deadline = Option.map (fun s -> Unix.gettimeofday () +. s) cfg.timeout_s in
  let name = d.Cobra_eval.Designs.name in
  let trace_digest = Digest.to_hex (Digest.file trace) in
  let use_cache = use_cache && Cobra_runner.Cache.enabled () in
  let wkeys =
    List.init wopts.windows (fun w -> window_cache_key d ~trace_digest wopts ~window:w)
  in
  let cached_windows =
    if use_cache && not wopts.verify then
      let hits = List.map Cobra_runner.Cache.load wkeys in
      if List.for_all Option.is_some hits then
        Some (List.map (fun p -> result_of_perf ~design:name ~trace (Option.get p)) hits)
      else None
    else None
  in
  match cached_windows with
  | Some rs -> (rs, false, true)
  | None ->
    let wk = warm_key d ~trace_digest ~warmup_branches:wopts.warmup_branches in
    Reader.with_file trace (fun rd ->
        let sim = Replay.Sim.create engine d in
        let warm_cached =
          match warm_find wk with
          | Some ck ->
            Replay.restore sim rd ck;
            true
          | None ->
            let ck, _warm_res =
              Replay.warmup ?deadline ~branches:wopts.warmup_branches ~design:name ~trace
                sim rd
            in
            warm_store wk ck;
            false
        in
        let replay ~branches sim rd =
          Replay.drive ?deadline ~max_branches:branches ~design:name ~trace sim (fun () ->
              Reader.next rd)
        in
        let results =
          List.init wopts.windows (fun _ -> replay ~branches:wopts.window_branches sim rd)
        in
        if wopts.verify then begin
          (* the non-snapshot oracle: a fresh pipeline replays warmup plus
             every window from the top of the trace *)
          Reader.with_file trace (fun rd2 ->
              let sim2 = Replay.Sim.create `Interpreted d in
              let _warm = replay ~branches:wopts.warmup_branches sim2 rd2 in
              List.iteri
                (fun w (snap : Replay.result) ->
                  let fresh = replay ~branches:wopts.window_branches sim2 rd2 in
                  if not (Replay.counters_equal snap fresh) then
                    failwith
                      (Printf.sprintf
                         "window %d of %s on %s: snapshot path diverged from the \
                          non-snapshot path (%d/%d mispredicts/branches vs %d/%d)"
                         w name trace snap.Replay.mispredicts snap.Replay.branches
                         fresh.Replay.mispredicts fresh.Replay.branches))
                results)
        end;
        if use_cache then
          List.iter2
            (fun k (r : Replay.result) ->
              match Cobra_runner.Cache.store k (Replay.to_perf r) with
              | Ok () | Error _ -> ())
            wkeys results;
        (results, warm_cached, false))

(* ---- request handlers ------------------------------------------------- *)

let handle_replay cfg send ?id req =
  let design =
    match Json.member "design" req with
    | Some (Json.String s) -> s
    | _ -> failwith "replay needs a \"design\" string"
  in
  let trace =
    match Json.member "trace" req with
    | Some (Json.String s) -> s
    | _ -> failwith "replay needs a \"trace\" path"
  in
  let opts = { max_branches = opt_int "max_branches" req; max_insns = opt_int "max_insns" req } in
  let engine = engine_of_req req in
  let d = find_design design in
  emit cfg send ?id ~event:"accepted"
    [ ("design", Json.String d.Cobra_eval.Designs.name); ("trace", Json.String trace) ];
  if bool_member "stats" req then begin
    (* stats runs are uncached: the report is not representable as Perf *)
    let deadline = Option.map (fun s -> Unix.gettimeofday () +. s) cfg.timeout_s in
    let res, report =
      Replay.run_design_with_stats ?max_branches:opts.max_branches
        ?max_insns:opts.max_insns ?deadline d ~path:trace
    in
    List.iter
      (fun p -> emit cfg send ?id ~event:"interval" (interval_fields p))
      report.Cobra_stats.Report.intervals;
    emit cfg send ?id ~event:"stats"
      [ ("summary", Json.String (Cobra_stats.Report.summary report)) ];
    emit cfg send ?id ~event:"result"
      (result_fields ~cached:false res @ [ engine_field `Interpreted ])
  end
  else begin
    let use_cache = not (bool_member "no_cache" req) in
    let r, cached = cached_replay cfg ~use_cache ~engine d ~trace opts in
    emit cfg send ?id ~event:"result" (result_fields ~cached r @ [ engine_field engine ])
  end

let handle_sweep cfg send ?id req =
  let traces = str_list "traces" req in
  if traces = [] then failwith "sweep needs a non-empty \"traces\" list";
  let designs =
    match str_list "designs" req with
    | [] -> Cobra_eval.Designs.all
    | names -> List.map find_design names
  in
  let use_cache = not (bool_member "no_cache" req) in
  let engine = engine_of_req req in
  let opts = { max_branches = opt_int "max_branches" req; max_insns = opt_int "max_insns" req } in
  let windowed =
    match opt_int "warmup_branches" req with
    | None -> None
    | Some warmup_branches ->
      let window_branches =
        match opt_int "window_branches" req with
        | Some n -> n
        | None -> failwith "windowed sweep needs \"window_branches\""
      in
      Some
        {
          warmup_branches;
          window_branches;
          windows = Option.value (opt_int "windows" req) ~default:1;
          verify = bool_member "verify" req;
        }
  in
  let points =
    List.concat_map (fun trace -> List.map (fun d -> (d, trace)) designs) traces
  in
  emit cfg send ?id ~event:"accepted" [ ("points", Json.Int (List.length points)) ];
  let failures = ref 0 in
  (match windowed with
  | None ->
    let outcomes =
      Cobra_runner.Pool.map ~jobs:cfg.jobs ~attempts:1
        (List.map
           (fun (d, trace) () -> cached_replay cfg ~use_cache ~engine d ~trace opts)
           points)
    in
    List.iter2
      (fun (d, trace) outcome ->
        match outcome with
        | Ok (r, cached) ->
          emit cfg send ?id ~event:"result"
            (result_fields ~cached r @ [ engine_field engine ])
        | Error (e : Cobra_runner.Pool.error) ->
          incr failures;
          emit cfg send ?id ~event:"error"
            [
              ("design", Json.String d.Cobra_eval.Designs.name);
              ("trace", Json.String trace);
              ("error", Json.String e.Cobra_runner.Pool.message);
            ])
      points outcomes
  | Some wopts ->
    let outcomes =
      Cobra_runner.Pool.map ~jobs:cfg.jobs ~attempts:1
        (List.map
           (fun (d, trace) () -> windowed_replay cfg ~use_cache ~engine d ~trace wopts)
           points)
    in
    List.iter2
      (fun (d, trace) outcome ->
        match outcome with
        | Ok (rs, warm_cached, cached) ->
          List.iteri
            (fun w r ->
              emit cfg send ?id ~event:"result"
                (result_fields ~cached r
                @ [
                    ("window", Json.Int w);
                    ("warm_cached", Json.Bool warm_cached);
                    ("verified", Json.Bool wopts.verify);
                    engine_field engine;
                  ]))
            rs
        | Error (e : Cobra_runner.Pool.error) ->
          incr failures;
          emit cfg send ?id ~event:"error"
            [
              ("design", Json.String d.Cobra_eval.Designs.name);
              ("trace", Json.String trace);
              ("error", Json.String e.Cobra_runner.Pool.message);
            ])
      points outcomes);
  let warm_entries, warm_evicted = warm_cache_stats () in
  emit cfg send ?id ~event:"sweep_summary"
    [
      ("points", Json.Int (List.length points));
      ("failures", Json.Int !failures);
      ("warm_entries", Json.Int warm_entries);
      ("warm_evictions", Json.Int warm_evicted);
    ]

let emit_event = emit

let handle_line cfg send line =
  let id = ref None in
  let verdict =
    match Json.of_string line with
    | Error e ->
      emit cfg send ~event:"error" [ ("error", Json.String ("bad JSON: " ^ e)) ];
      `Continue
    | Ok req -> (
      (match Json.member "id" req with
      | Some (Json.String s) -> id := Some s
      | _ -> ());
      let id = !id in
      match Json.member "op" req with
      | Some (Json.String "ping") ->
        emit cfg send ?id ~event:"pong" [];
        `Continue
      | Some (Json.String "shutdown") ->
        emit cfg send ?id ~event:"bye" [];
        `Shutdown
      | Some (Json.String op) -> (
        let handler =
          match op with
          | "replay" -> Some handle_replay
          | "sweep" -> Some handle_sweep
          | _ -> List.assoc_opt op cfg.extra_ops
        in
        match handler with
        | None ->
          let known =
            "ping" :: "shutdown" :: "replay" :: "sweep" :: List.map fst cfg.extra_ops
          in
          emit cfg send ?id ~event:"error"
            [
              ("error",
               Json.String
                 (Printf.sprintf "unknown op: %s (know: %s)" op (String.concat ", " known)));
            ];
          `Continue
        | Some h ->
          (try h cfg send ?id req with
          | Replay.Timeout { branches; _ } ->
            emit cfg send ?id ~event:"error"
              [
                ("error",
                 Json.String
                   (Printf.sprintf "timeout after %d branches" branches));
              ]
          | Failure m ->
            emit cfg send ?id ~event:"error" [ ("error", Json.String m) ]
          | e ->
            emit cfg send ?id ~event:"error"
              [ ("error", Json.String (Printexc.to_string e)) ]);
          `Continue)
      | _ ->
        emit cfg send ?id ~event:"error"
          [ ("error", Json.String "request needs an \"op\" string") ];
        `Continue)
  in
  emit cfg send ?id:!id ~event:"done" [];
  verdict

(* ---- server loop ------------------------------------------------------ *)

let ignore_sigpipe () =
  match Sys.signal Sys.sigpipe Sys.Signal_ignore with
  | _ -> ()
  | exception Invalid_argument _ -> ()

let handle_connection cfg stopping fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let send_mutex = Mutex.create () in
  let send line =
    Mutex.lock send_mutex;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock send_mutex)
      (fun () ->
        output_string oc line;
        output_char oc '\n';
        flush oc)
  in
  let rec loop () =
    match input_line ic with
    | exception End_of_file -> ()
    | exception Sys_error _ -> ()
    | line ->
      if String.trim line = "" then loop ()
      else begin
        match handle_line cfg send line with
        | `Continue -> loop ()
        | `Shutdown ->
          Atomic.set stopping true;
          (* the accept loop is blocked in [Unix.accept]; poke it awake *)
          (try
             let w = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
             (try Unix.connect w (Unix.ADDR_UNIX cfg.socket)
              with Unix.Unix_error _ -> ());
             Unix.close w
           with Unix.Unix_error _ -> ())
      end
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    loop

let serve cfg =
  ignore_sigpipe ();
  if Sys.file_exists cfg.socket then Unix.unlink cfg.socket;
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind sock (Unix.ADDR_UNIX cfg.socket);
  Unix.listen sock 16;
  let stopping = Atomic.make false in
  let threads = ref [] in
  (while not (Atomic.get stopping) do
     match Unix.accept sock with
     | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
     | fd, _ ->
       if Atomic.get stopping then (try Unix.close fd with Unix.Unix_error _ -> ())
       else
         let t =
           Thread.create
             (fun () ->
               try handle_connection cfg stopping fd
               with _ -> (try Unix.close fd with Unix.Unix_error _ -> ()))
             ()
         in
         threads := t :: !threads
   done;
   (* a shutdown handler flipped the flag; if it came from another thread's
      connection the accept above already returned via the self-connect *)
   List.iter (fun t -> try Thread.join t with _ -> ()) !threads);
  (try Unix.close sock with Unix.Unix_error _ -> ());
  if Sys.file_exists cfg.socket then (try Unix.unlink cfg.socket with Sys_error _ -> ())

(* ---- client ----------------------------------------------------------- *)

let is_done_line line =
  (* the Json emitter renders object keys as  "key": value  *)
  match Json.of_string line with
  | Ok j -> ( match Json.member "event" j with Some (Json.String "done") -> true | _ -> false)
  | Error _ -> false

let request ?(timeout_s = 60.0) ~socket line =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      (match Unix.connect fd (Unix.ADDR_UNIX socket) with
      | () -> ()
      | exception Unix.Unix_error (e, _, _) ->
        failwith
          (Printf.sprintf "cannot connect to %s: %s" socket (Unix.error_message e)));
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout_s;
      let oc = Unix.out_channel_of_descr fd in
      let ic = Unix.in_channel_of_descr fd in
      output_string oc line;
      output_char oc '\n';
      flush oc;
      let deadline = Unix.gettimeofday () +. timeout_s in
      let rec read acc =
        if Unix.gettimeofday () > deadline then
          failwith (Printf.sprintf "request timed out after %.0fs" timeout_s)
        else
          match input_line ic with
          | exception End_of_file ->
            failwith "server closed the connection before \"done\""
          | exception Sys_error _ ->
            failwith (Printf.sprintf "request timed out after %.0fs" timeout_s)
          | l -> if is_done_line l then List.rev (l :: acc) else read (l :: acc)
      in
      read [])

let shutdown ?timeout_s ~socket () =
  ignore (request ?timeout_s ~socket {|{"op": "shutdown"}|})
