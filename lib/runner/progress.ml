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
      try Some (open_out_gen [ Open_append; Open_creat ] 0o644 p) with _ -> None)
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

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_of_event t e =
  let common kind job rest =
    Printf.sprintf "{\"ts\": %.6f, \"label\": \"%s\", \"event\": \"%s\", \"job\": %d%s}"
      (Unix.gettimeofday ()) (json_escape t.label) kind job rest
  in
  match e with
  | Start { job; key } -> common "start" job (Printf.sprintf ", \"key\": \"%s\"" (json_escape key))
  | Cache_hit { job; key } ->
    common "cache_hit" job (Printf.sprintf ", \"key\": \"%s\"" (json_escape key))
  | Retry { job; attempt; message } ->
    common "retry" job
      (Printf.sprintf ", \"attempt\": %d, \"error\": \"%s\"" attempt (json_escape message))
  | Finish { job; ok; cached; elapsed } ->
    common "finish" job
      (Printf.sprintf ", \"ok\": %b, \"cached\": %b, \"elapsed\": %.6f" ok cached elapsed)
  | Stats { design; workload; summary } ->
    Printf.sprintf
      "{\"ts\": %.6f, \"label\": \"%s\", \"event\": \"stats\", \"design\": \"%s\", \
       \"workload\": \"%s\", \"summary\": \"%s\"}"
      (Unix.gettimeofday ()) (json_escape t.label) (json_escape design)
      (json_escape workload) (json_escape summary)
  | Store_error { job; key; message } ->
    common "store_error" job
      (Printf.sprintf ", \"key\": \"%s\", \"error\": \"%s\"" (json_escape key)
         (json_escape message))

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
  Printf.sprintf
    "{\"ts\": %.6f, \"label\": \"%s\", \"event\": \"summary\", \"total\": %d, \"done\": \
     %d, \"hits\": %d, \"failures\": %d, \"retries\": %d, \"store_errors\": %d, \
     \"elapsed\": %.6f, \"rate\": %.6f}"
    (Unix.gettimeofday ()) (json_escape t.label) t.total t.done_ t.hits t.failures
    t.retries t.store_errors elapsed (rate_of t ~elapsed)

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
