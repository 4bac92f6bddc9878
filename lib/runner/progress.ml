type event =
  | Start of { job : int; key : string }
  | Cache_hit of { job : int; key : string }
  | Retry of { job : int; attempt : int; message : string }
  | Finish of { job : int; ok : bool; cached : bool; elapsed : float }
  | Stats of { design : string; workload : string; summary : string }
  | Store_error of { job : int; key : string; message : string }

type t = {
  label : string;
  total : int;
  live : bool;
  t0 : float;
  lock : Mutex.t;
  mutable events : out_channel option;
  mutable done_ : int;
  mutable hits : int;
  mutable failures : int;
  mutable retries : int;
  mutable store_errors : int;
  mutable closed : bool;
}

(* Process-wide tally across every [t] — a run may build several progress
   sinks (one per sweep stage), and the CLI exit gate needs the sum. *)
let global_store_errors = Atomic.make 0
let total_store_errors () = Atomic.get global_store_errors

let default_live () =
  Cobra_util.Env.bool_var "COBRA_PROGRESS"
    ~default:(try Unix.isatty Unix.stderr with _ -> false)

let create ?(label = "jobs") ?events_path ?live ~total () =
  let events_path =
    match events_path with Some p -> Some p | None -> Sys.getenv_opt "COBRA_EVENTS"
  in
  let events =
    match events_path with
    | Some p when String.trim p <> "" -> (
      try Some (open_out_gen [ Open_append; Open_creat ] 0o644 p)
      with Sys_error m -> failwith ("cannot open the events file " ^ m))
    | Some _ | None -> None
  in
  {
    label;
    total;
    live = (match live with Some l -> l | None -> default_live ());
    t0 = Unix.gettimeofday ();
    lock = Mutex.create ();
    events;
    done_ = 0;
    hits = 0;
    failures = 0;
    retries = 0;
    store_errors = 0;
    closed = false;
  }

module Json = Cobra_stats.Json

let json_of_event t e =
  let line kind fields =
    Json.to_string
      (Json.Obj
         (("ts", Json.Float (Unix.gettimeofday ()))
         :: ("label", Json.String t.label)
         :: ("event", Json.String kind)
         :: fields))
  in
  match e with
  | Start { job; key } -> line "start" [ ("job", Json.Int job); ("key", Json.String key) ]
  | Cache_hit { job; key } ->
    line "cache_hit" [ ("job", Json.Int job); ("key", Json.String key) ]
  | Retry { job; attempt; message } ->
    line "retry"
      [ ("job", Json.Int job); ("attempt", Json.Int attempt); ("error", Json.String message) ]
  | Finish { job; ok; cached; elapsed } ->
    line "finish"
      [
        ("job", Json.Int job);
        ("ok", Json.Bool ok);
        ("cached", Json.Bool cached);
        ("elapsed", Json.Float elapsed);
      ]
  | Stats { design; workload; summary } ->
    line "stats"
      [
        ("design", Json.String design);
        ("workload", Json.String workload);
        ("summary", Json.String summary);
      ]
  | Store_error { job; key; message } ->
    line "store_error"
      [ ("job", Json.Int job); ("key", Json.String key); ("error", Json.String message) ]

(* Every derived figure (rate, ETA) must stay finite on degenerate inputs:
   zero-job grids, the first event arriving at elapsed ~ 0, clock skew. *)
let safe_div a b = if b > 0.0 then a /. b else 0.0

let rate_of t ~elapsed = safe_div (float_of_int t.done_) elapsed

let eta_of t ~elapsed =
  if t.done_ = 0 || t.done_ >= t.total then None
  else
    let per_job = safe_div elapsed (float_of_int t.done_) in
    let eta = per_job *. float_of_int (t.total - t.done_) in
    if Float.is_finite eta && eta >= 0.0 then Some eta else None

let status_line t =
  let elapsed = Float.max 0.0 (Unix.gettimeofday () -. t.t0) in
  let rate =
    let r = rate_of t ~elapsed in
    if r > 0.0 then Printf.sprintf ", %.1f/s" r else ""
  in
  let eta =
    match eta_of t ~elapsed with
    | Some eta -> Printf.sprintf ", ETA %.0fs" eta
    | None -> ""
  in
  let store_errors =
    if t.store_errors > 0 then Printf.sprintf ", %d store-errors" t.store_errors else ""
  in
  Printf.sprintf "[%s %d/%d, %d hits, %d failures%s%s%s]" t.label t.done_ t.total t.hits
    t.failures store_errors rate eta

let render t = Printf.eprintf "\r%s%!" (status_line t)

(* called with the lock held *)
let record t e =
  (match e with
  | Start _ | Stats _ -> ()
  | Cache_hit _ -> t.hits <- t.hits + 1
  | Retry _ -> t.retries <- t.retries + 1
  | Store_error _ ->
    t.store_errors <- t.store_errors + 1;
    Atomic.incr global_store_errors
  | Finish { ok; _ } ->
    t.done_ <- t.done_ + 1;
    if not ok then t.failures <- t.failures + 1);
  (match t.events with
  | Some oc -> ( try output_string oc (json_of_event t e ^ "\n"); flush oc with _ -> ())
  | None -> ());
  match e with
  | (Finish _ | Cache_hit _ | Retry _ | Store_error _) when t.live -> render t
  | _ -> ()

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let emit t e = with_lock t (fun () -> record t e)
let jobs_done t = with_lock t (fun () -> t.done_)
let hits t = with_lock t (fun () -> t.hits)
let failures t = with_lock t (fun () -> t.failures)
let retries t = with_lock t (fun () -> t.retries)
let store_errors t = with_lock t (fun () -> t.store_errors)

let summary_json t =
  let elapsed = Float.max 0.0 (Unix.gettimeofday () -. t.t0) in
  Json.to_string
    (Json.Obj
       [
         ("ts", Json.Float (Unix.gettimeofday ()));
         ("label", Json.String t.label);
         ("event", Json.String "summary");
         ("total", Json.Int t.total);
         ("done", Json.Int t.done_);
         ("hits", Json.Int t.hits);
         ("failures", Json.Int t.failures);
         ("retries", Json.Int t.retries);
         ("store_errors", Json.Int t.store_errors);
         ("elapsed", Json.Float elapsed);
         ("rate", Json.Float (rate_of t ~elapsed));
       ])

let finish t =
  with_lock t (fun () ->
      if not t.closed then begin
        t.closed <- true;
        if t.live then Printf.eprintf "\r%s\n%!" (status_line t)
        else if t.failures > 0 then Printf.eprintf "%s\n%!" (status_line t);
        match t.events with
        | Some oc ->
          t.events <- None;
          (try
             output_string oc (summary_json t ^ "\n");
             close_out oc
           with _ -> ())
        | None -> ()
      end)
