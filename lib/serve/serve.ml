module Json = Cobra_stats.Json
module Designs = Cobra_eval.Designs
module Cache = Cobra_runner.Cache
module Pool = Cobra_runner.Pool
module Replay = Cobra_trace_replay.Replay
module Reader = Cobra_trace_replay.Reader
module Oracle = Cobra_probe.Oracle

type config = { socket : string; jobs : int; timeout_s : float option }

let default_config ~socket = { socket; jobs = Pool.default_jobs (); timeout_s = None }

(* ---- the daemon ------------------------------------------------------- *)

(* Warm pipeline state is kept per (design, trace digest, warmup length),
   keyed by the same content-addressing recipe as the on-disk result cache:
   the first windowed sweep over a trace pays the warmup replay once, every
   later sweep point restores the checkpoint with one memcpy per region.
   A checkpoint slab is the whole design's state (tens of KB per point) and
   a daemon is long-lived, so the table is a bounded LRU: COBRA_WARM_CACHE
   entries (default 64, read when the daemon is created), the
   least-recently-touched checkpoint evicted past the cap, evictions
   counted into the sweep telemetry. *)
type warm_entry = { ck : Replay.checkpoint; mutable tick : int }

type t = {
  cfg : config;
  warm : (string, warm_entry) Hashtbl.t;
  warm_capacity : int;
  warm_mutex : Mutex.t;
  mutable warm_tick : int;
  mutable warm_evictions : int;
}

let create cfg =
  {
    cfg;
    warm = Hashtbl.create 16;
    warm_capacity = Cobra_util.Env.(get warm_cache);
    warm_mutex = Mutex.create ();
    warm_tick = 0;
    warm_evictions = 0;
  }

let warm_find t k =
  Mutex.protect t.warm_mutex (fun () ->
      match Hashtbl.find_opt t.warm k with
      | None -> None
      | Some e ->
        t.warm_tick <- t.warm_tick + 1;
        e.tick <- t.warm_tick;
        Some e.ck)

let warm_store t k ck =
  Mutex.protect t.warm_mutex (fun () ->
      t.warm_tick <- t.warm_tick + 1;
      Hashtbl.replace t.warm k { ck; tick = t.warm_tick };
      while Hashtbl.length t.warm > t.warm_capacity do
        (* the table is tiny (the cap bounds it); a linear scan per
           eviction beats maintaining an ordered index under the mutex *)
        let victim =
          Hashtbl.fold
            (fun k e acc ->
              match acc with Some (_, tick) when tick <= e.tick -> acc | _ -> Some (k, e.tick))
            t.warm None
        in
        match victim with
        | Some (k, _) ->
          Hashtbl.remove t.warm k;
          t.warm_evictions <- t.warm_evictions + 1
        | None -> assert false (* length > cap >= 1: the table is non-empty *)
      done)

let warm_stats t =
  Mutex.protect t.warm_mutex (fun () -> (Hashtbl.length t.warm, t.warm_evictions))

(* ---- response emission ------------------------------------------------ *)

let emit send ?id ~event fields =
  let id = match id with Some i -> [ ("id", Json.String i) ] | None -> [] in
  send
    (Json.to_string
       (Json.Obj
          ((("ts", Json.Float (Unix.gettimeofday ())) :: ("label", Json.String "serve") :: id)
          @ (("event", Json.String event) :: fields))))

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

let opt_int name j =
  match Json.member name j with
  | Some (Json.Int n) when n > 0 -> Some n
  | Some Json.Null | None -> None
  | Some (Json.Int _) -> failwith (name ^ " must be positive")
  | Some _ -> failwith (name ^ " must be an integer")

let bool_member name j =
  match Json.member name j with
  | Some (Json.Bool b) -> b
  | Some Json.Null | None -> false
  | Some _ -> failwith (name ^ " must be a boolean")

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
  try Designs.find name
  with Not_found ->
    failwith
      (Printf.sprintf "unknown design %S (know: %s)" name
         (String.concat ", " (List.map (fun (d : Designs.t) -> d.Designs.name) Designs.named)))

(* ---- one replay point ------------------------------------------------- *)

(* The per-request budget ([--timeout]) as an absolute deadline from now. *)
let deadline t = Option.map (fun s -> Unix.gettimeofday () +. s) t.cfg.timeout_s

(* What a (design, trace) point replays: an optional warmup, then [windows]
   consecutive windows under the caps. A replay op and a plain sweep point
   are one window under the request's caps; a windowed sweep point warms
   up over [warmup] branches, then measures windows of [max_branches]. *)
type point = {
  warmup : int option;
  windows : int;
  max_branches : int option;
  max_insns : int option;
  verify : bool;
}

let plain_point req =
  {
    warmup = None;
    windows = 1;
    max_branches = opt_int "max_branches" req;
    max_insns = opt_int "max_insns" req;
    verify = false;
  }

(* The one cache-key recipe: design, topology, pipeline config and trace
   digest, then the caps that make one entry [kind]. *)
let cache_key kind (d : Designs.t) ~digest caps =
  Cache.key
    ([
       kind;
       "v1";
       "design:" ^ d.Designs.name;
       "topology:" ^ Cobra.Topology.spec (d.Designs.make ());
       "pipeline:" ^ Cobra.Pipeline.config_spec d.Designs.pipeline_config;
       "trace:" ^ digest;
     ]
    @ List.map (fun (cap, n) -> cap ^ ":" ^ string_of_int n) caps)

let window_key p d ~digest w =
  let cap = Option.value ~default:0 in
  match p.warmup with
  | None ->
    cache_key "btrace-replay" d ~digest
      [ ("branches", cap p.max_branches); ("insns", cap p.max_insns) ]
  | Some warmup ->
    cache_key "btrace-replay-window" d ~digest
      [ ("warmup", warmup); ("window_branches", cap p.max_branches); ("window", w) ]

(* Each trace is digested once per request: the first point that keys on
   it digests the file, the request's other points reuse the digest. *)
let digest_memo () =
  let m = Mutex.create () and seen = Hashtbl.create 4 in
  fun trace ->
    Mutex.protect m (fun () ->
        match Hashtbl.find_opt seen trace with
        | Some d -> d
        | None ->
          let d = Digest.to_hex (Digest.file trace) in
          Hashtbl.replace seen trace d;
          d)

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

(* Replay one point, answering it from the result cache when every window
   is there. The warmup is restored from the daemon's warm cache, or
   replayed and stored into it. [engine] picks the simulator: one engine
   per point, fed the cached checkpoint, whose slab layout both engines
   share. With [verify] the whole region is recomputed on a fresh
   {e interpreted} pipeline without any snapshot and every window's
   counters must match bit-for-bit, which under a compiled engine
   certifies the snapshot handoff and the compilation at once. Cache keys
   are engine-independent: both engines' counters are certified
   bit-identical. A point that reads no branch record is an error, and
   leaves nothing in either cache; so is a window that starts past the end
   of the trace, which leaves nothing in the result cache (a partial last
   window is a result). Returns (per-window results, warm checkpoint came
   from the cache, windows came from the result cache). *)
let replay_point t ~digest ~use_cache ~engine (d : Designs.t) ~trace p =
  if not (Sys.file_exists trace) then failwith ("no such trace file: " ^ trace);
  let deadline = deadline t in
  let use_cache = use_cache && Cache.enabled () in
  let name = d.Designs.name in
  let keys =
    if use_cache then Some (List.init p.windows (window_key p d ~digest:(digest trace)))
    else None
  in
  let cached =
    match keys with
    | Some keys when not p.verify ->
      let hits = List.map Cache.load keys in
      (* no window without a branch is stored; one that an older daemon
         stored is recomputed, and so answered as an error *)
      let measured = function
        | Some (h : Cobra_uarch.Perf.t) -> h.Cobra_uarch.Perf.branches > 0
        | None -> false
      in
      if List.for_all measured hits then
        Some (List.map (fun h -> result_of_perf ~design:name ~trace (Option.get h)) hits)
      else None
    | _ -> None
  in
  match cached with
  | Some results -> (results, false, true)
  | None ->
    let empty () =
      failwith
        (Printf.sprintf "trace %s contains no branch records (empty or header-only file)" trace)
    in
    let region ?max_branches ?max_insns sim rd =
      Replay.drive ?deadline ?max_branches ?max_insns ~design:name ~trace sim (Reader.read rd)
    in
    let window sim rd = region ?max_branches:p.max_branches ?max_insns:p.max_insns sim rd in
    Reader.with_file trace (fun rd ->
        let sim = Replay.Sim.create engine d in
        let warm_cached, warm_branches =
          match p.warmup with
          | None -> (false, 0)
          | Some branches -> (
            let k =
              Cache.hex
                (cache_key "btrace-warm" d ~digest:(digest trace) [ ("warmup", branches) ])
            in
            match warm_find t k with
            | Some ck ->
              Replay.restore sim rd ck;
              (true, ck.Replay.ck_branches)
            | None ->
              let ck, warm = Replay.warmup ?deadline ~branches ~design:name ~trace sim rd in
              if warm.Replay.branches = 0 then empty ();
              warm_store t k ck;
              (false, warm.Replay.branches))
        in
        let results = List.init p.windows (fun _ -> window sim rd) in
        (match (p.warmup, List.find_index (fun r -> r.Replay.branches = 0) results) with
        | None, Some _ -> empty ()
        | Some _, Some w ->
          (* windows are capped on branches only: an empty one is past the end *)
          let total = List.fold_left (fun n r -> n + r.Replay.branches) warm_branches results in
          failwith
            (Printf.sprintf "window %d of %s on %s starts past the end of the trace (%d branches)"
               w name trace total)
        | _, None -> ());
        if p.verify then
          (* the non-snapshot oracle: a fresh pipeline replays the warmup
             and every window from the top of the trace *)
          Reader.with_file trace (fun rd2 ->
              let sim2 = Replay.Sim.create `Interpreted d in
              Option.iter
                (fun branches -> ignore (region ~max_branches:branches sim2 rd2))
                p.warmup;
              List.iteri
                (fun w (snap : Replay.result) ->
                  let fresh = window sim2 rd2 in
                  if not (Replay.counters_equal snap fresh) then
                    failwith
                      (Printf.sprintf
                         "window %d of %s on %s: snapshot path diverged from the \
                          non-snapshot path (%d/%d mispredicts/branches vs %d/%d)"
                         w name trace snap.Replay.mispredicts snap.Replay.branches
                         fresh.Replay.mispredicts fresh.Replay.branches))
                results);
        Option.iter
          (fun keys ->
            List.iter2
              (fun k r ->
                (* the cache is an optimisation; the result still flows *)
                match Cache.store k (Replay.to_perf r) with Ok () | Error _ -> ())
              keys results)
          keys;
        (results, warm_cached, false))

let emit_results send ?id ~engine p (results, warm_cached, cached) =
  let window w =
    match p.warmup with
    | None -> []
    | Some _ ->
      [
        ("window", Json.Int w);
        ("warm_cached", Json.Bool warm_cached);
        ("verified", Json.Bool p.verify);
      ]
  in
  List.iteri
    (fun w r ->
      emit send ?id ~event:"result" (result_fields ~cached r @ window w @ [ engine_field engine ]))
    results

(* ---- request handlers ------------------------------------------------- *)

let handle_replay t send ?id req =
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
  let p = plain_point req in
  let engine = engine_of_req req in
  let stats = bool_member "stats" req and use_cache = not (bool_member "no_cache" req) in
  let d = find_design design in
  emit send ?id ~event:"accepted"
    [ ("design", Json.String d.Designs.name); ("trace", Json.String trace) ];
  if stats then begin
    (* stats runs are uncached: the report is not representable as Perf *)
    let deadline = deadline t in
    let res, report =
      Replay.run_design_with_stats ?max_branches:p.max_branches ?max_insns:p.max_insns
        ?deadline d ~path:trace
    in
    List.iter
      (fun i -> emit send ?id ~event:"interval" (interval_fields i))
      report.Cobra_stats.Report.intervals;
    emit send ?id ~event:"stats" [ ("summary", Json.String (Cobra_stats.Report.summary report)) ];
    emit send ?id ~event:"result" (result_fields ~cached:false res @ [ engine_field `Interpreted ])
  end
  else
    emit_results send ?id ~engine p
      (replay_point t ~digest:(digest_memo ()) ~use_cache ~engine d ~trace p)

let handle_sweep t send ?id req =
  let traces = str_list "traces" req in
  if traces = [] then failwith "sweep needs a non-empty \"traces\" list";
  let designs =
    match str_list "designs" req with [] -> Designs.all | names -> List.map find_design names
  in
  let use_cache = not (bool_member "no_cache" req) in
  let engine = engine_of_req req in
  (* the fields of the other mode would be ignored: refuse them *)
  let refuse fields why =
    List.iter
      (fun f ->
        match Json.member f req with
        | None | Some Json.Null -> ()
        | Some _ -> failwith (Printf.sprintf "%S %s" f why))
      fields
  in
  let p =
    match opt_int "warmup_branches" req with
    | None ->
      refuse [ "window_branches"; "windows"; "verify" ] "needs \"warmup_branches\"";
      plain_point req
    | Some warmup ->
      refuse [ "max_branches"; "max_insns" ]
        "is not a windowed sweep's cap (use \"window_branches\")";
      let window_branches =
        match opt_int "window_branches" req with
        | Some n -> n
        | None -> failwith "windowed sweep needs \"window_branches\""
      in
      {
        warmup = Some warmup;
        windows = Option.value (opt_int "windows" req) ~default:1;
        max_branches = Some window_branches;
        max_insns = None;
        verify = bool_member "verify" req;
      }
  in
  let points = List.concat_map (fun trace -> List.map (fun d -> (d, trace)) designs) traces in
  emit send ?id ~event:"accepted" [ ("points", Json.Int (List.length points)) ];
  let digest = digest_memo () in
  let outcomes =
    Pool.map ~jobs:t.cfg.jobs ~attempts:1
      (List.map
         (fun (d, trace) () -> replay_point t ~digest ~use_cache ~engine d ~trace p)
         points)
  in
  let failures = ref 0 in
  List.iter2
    (fun ((d : Designs.t), trace) -> function
      | Ok outcome -> emit_results send ?id ~engine p outcome
      | Error (e : Pool.error) ->
        incr failures;
        emit send ?id ~event:"error"
          [
            ("design", Json.String d.Designs.name);
            ("trace", Json.String trace);
            ("error", Json.String e.Pool.message);
          ])
    points outcomes;
  let warm_entries, warm_evictions = warm_stats t in
  emit send ?id ~event:"sweep_summary"
    [
      ("points", Json.Int (List.length points));
      ("failures", Json.Int !failures);
      ("warm_entries", Json.Int warm_entries);
      ("warm_evictions", Json.Int warm_evictions);
    ]

(* The probe fidelity matrix: one "probe" event per (target, probe) pair
   plus a "probe-summary"; omitted or empty lists mean the full
   catalogue. The whole matrix runs under the request's budget. *)
let handle_probe t send ?id req =
  let pick find all field =
    match str_list field req with [] -> all | names -> List.map find names
  in
  let probes = pick Cobra_probe.Pattern.find_exn Cobra_probe.Pattern.all "probes" in
  let targets = pick Cobra_probe.Target.find_exn Cobra_probe.Target.all "targets" in
  let seed =
    match Json.member "seed" req with
    | Some (Json.Int n) -> n
    | Some Json.Null | None -> Cobra_util.Env.(get seed)
    | Some _ -> failwith "seed must be an integer"
  in
  let rep = Oracle.run_matrix ?deadline:(deadline t) ~targets ~probes ~seed () in
  List.iter
    (fun r -> emit send ?id ~event:"probe" (Oracle.result_fields r))
    rep.Oracle.rep_results;
  emit send ?id ~event:"probe-summary"
    [
      ("seed", Json.Int rep.Oracle.rep_seed);
      ("results", Json.Int (List.length rep.Oracle.rep_results));
      ("failures", Json.Int (List.length (Oracle.failures rep)));
      ("elapsed_s", Json.Float rep.Oracle.rep_elapsed_s);
    ]

(* Every op with the fields it takes besides "op" and "id". Any other field
   is an error naming it: a misspelt cap must not run the whole trace. *)
let ops =
  [
    ("ping", [], fun _ send ?id _ -> emit send ?id ~event:"pong" []);
    ("shutdown", [], fun _ send ?id _ -> emit send ?id ~event:"bye" []);
    ( "replay",
      [ "design"; "trace"; "max_branches"; "max_insns"; "engine"; "stats"; "no_cache" ],
      handle_replay );
    ( "sweep",
      [
        "designs"; "traces"; "max_branches"; "max_insns"; "engine"; "no_cache";
        "warmup_branches"; "window_branches"; "windows"; "verify";
      ],
      handle_sweep );
    ("probe", [ "probes"; "targets"; "seed" ], handle_probe);
  ]

let handle_line t send line =
  let id = ref None in
  let verdict =
    match Json.of_string line with
    | Error e ->
      emit send ~event:"error" [ ("error", Json.String ("bad JSON: " ^ e)) ];
      `Continue
    | Ok req -> (
      (match Json.member "id" req with Some (Json.String s) -> id := Some s | _ -> ());
      let id = !id in
      let error m =
        emit send ?id ~event:"error" [ ("error", Json.String m) ];
        `Continue
      in
      match Json.member "op" req with
      | Some (Json.String op) -> (
        let names = String.concat ", " in
        match List.find_opt (fun (name, _, _) -> name = op) ops with
        | None ->
          error
            (Printf.sprintf "unknown op: %s (know: %s)" op
               (names (List.map (fun (name, _, _) -> name) ops)))
        | Some (_, fields, h) -> (
          let takes = "op" :: "id" :: fields in
          let given = match req with Json.Obj kvs -> List.map fst kvs | _ -> [] in
          match List.filter (fun f -> not (List.mem f takes)) given with
          | _ :: _ as unknown ->
            error
              (Printf.sprintf "%s takes no field%s %s (it takes: %s)" op
                 (if List.length unknown = 1 then "" else "s")
                 (names (List.map (Printf.sprintf "%S") unknown))
                 (names takes))
          | [] -> (
            match h t send ?id req with
            | () -> if op = "shutdown" then `Shutdown else `Continue
            | exception Replay.Timeout { branches; _ } ->
              error (Printf.sprintf "timeout after %d branches" branches)
            | exception Failure m -> error m
            | exception e -> error (Printexc.to_string e))))
      | _ -> error "request needs an \"op\" string")
  in
  emit send ?id:!id ~event:"done" [];
  verdict

(* ---- server loop ------------------------------------------------------ *)

let ignore_sigpipe () =
  match Sys.signal Sys.sigpipe Sys.Signal_ignore with
  | _ -> ()
  | exception Invalid_argument _ -> ()

let max_request_bytes = 1 lsl 20

(* The next request line without its newline ([input_line]'s semantics),
   read at most [max_request_bytes] at a time: a client that never sends a
   newline cannot grow the daemon's memory without bound. *)
let read_request ic buf =
  Buffer.clear buf;
  let rec go () =
    match input_char ic with
    | exception End_of_file -> if Buffer.length buf = 0 then `Eof else `Line (Buffer.contents buf)
    | '\n' -> `Line (Buffer.contents buf)
    | c ->
      if Buffer.length buf >= max_request_bytes then `Too_long
      else begin
        Buffer.add_char buf c;
        go ()
      end
  in
  go ()

let handle_connection t stopping fd =
  let ic = Unix.in_channel_of_descr fd in
  let buf = Buffer.create 256 in
  let oc = Unix.out_channel_of_descr fd in
  let send_mutex = Mutex.create () in
  let send line =
    Mutex.protect send_mutex (fun () ->
        output_string oc line;
        output_char oc '\n';
        flush oc)
  in
  let rec loop () =
    match read_request ic buf with
    | exception Sys_error _ -> ()
    | `Eof -> ()
    | `Too_long ->
      (* the rest of the line cannot be told from the next request: answer
         like a malformed one, then hang up *)
      emit send ~event:"error"
        [
          ( "error",
            Json.String (Printf.sprintf "request line longer than %d bytes" max_request_bytes) );
        ];
      emit send ~event:"done" []
    | `Line line ->
      if String.trim line = "" then loop ()
      else begin
        match handle_line t send line with
        | `Continue -> loop ()
        | `Shutdown ->
          Atomic.set stopping true;
          (* the accept loop is blocked in [Unix.accept]; poke it awake *)
          (try
             let w = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
             (try Unix.connect w (Unix.ADDR_UNIX t.cfg.socket)
              with Unix.Unix_error _ -> ());
             Unix.close w
           with Unix.Unix_error _ -> ())
      end
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    loop

(* Only a stale socket, one that refuses connections, is ours to replace: a
   path that is not a socket belongs to someone else, and a socket that
   accepts belongs to a live daemon that would become unreachable. *)
let claim_socket path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_SOCK; _ } ->
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let live =
      Fun.protect
        ~finally:(fun () -> Unix.close probe)
        (fun () ->
          match Unix.connect probe (Unix.ADDR_UNIX path) with
          | () -> true
          | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> false)
    in
    if live then failwith (Printf.sprintf "%s: a daemon is already listening there" path);
    Unix.unlink path
  | _ -> failwith (Printf.sprintf "%s exists and is not a socket; not replacing it" path)

let serve t =
  let socket = t.cfg.socket in
  ignore_sigpipe ();
  claim_socket socket;
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind sock (Unix.ADDR_UNIX socket);
  Unix.listen sock 16;
  let stopping = Atomic.make false in
  let threads = ref [] in
  (while not (Atomic.get stopping) do
     match Unix.accept sock with
     | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
     | fd, _ ->
       if Atomic.get stopping then (try Unix.close fd with Unix.Unix_error _ -> ())
       else
         let th =
           Thread.create
             (fun () ->
               try handle_connection t stopping fd
               with _ -> (try Unix.close fd with Unix.Unix_error _ -> ()))
             ()
         in
         threads := th :: !threads
   done;
   (* a shutdown handler flipped the flag; if it came from another thread's
      connection the accept above already returned via the self-connect *)
   List.iter (fun th -> try Thread.join th with _ -> ()) !threads);
  (try Unix.close sock with Unix.Unix_error _ -> ());
  if Sys.file_exists socket then (try Unix.unlink socket with Sys_error _ -> ())

(* ---- client ----------------------------------------------------------- *)

let is_done_line line =
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
