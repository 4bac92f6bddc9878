(* A [cobra serve] child process and the benchmark's one closed-loop client
   connection to it. Each daemon gets its own directory for its socket, its
   on-disk result cache and its log, and an environment with every COBRA_*
   variable of the caller replaced by the benchmark's pinned values. *)

module Json = Cobra_stats.Json

type t = {
  pid : int;
  socket : string;
  mutable conn : (Unix.file_descr * in_channel * out_channel) option;
  mutable reaped : bool;
}

(* Two warmup boundaries' checkpoints, so that a round's third cold sweep
   evicts the first's; warm sweeps reuse the newest boundary, which is
   always resident (Mix.plan). Every sweep touches one checkpoint per
   design, so an even capacity evicts whole sweeps and the eviction count
   does not depend on which of a sweep's points the pool finishes first. *)
let warm_capacity = 4

(* Longest wait for one response line; a stalled daemon fails the request
   instead of the run. *)
let response_timeout_s = 60.0

let env ~jobs ~cache_dir =
  let inherited =
    List.filter
      (fun kv -> not (String.starts_with ~prefix:"COBRA_" kv))
      (Array.to_list (Unix.environment ()))
  in
  Array.of_list
    (("COBRA_CACHE_DIR=" ^ cache_dir)
    :: Printf.sprintf "COBRA_JOBS=%d" jobs
    :: Printf.sprintf "COBRA_WARM_CACHE=%d" warm_capacity
    :: inherited)

let start ~cli ~dir ~jobs =
  let socket = Filename.concat dir "s.sock" in
  let log =
    Unix.openfile (Filename.concat dir "serve.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
      0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close log;
        Unix.close null)
      (fun () ->
        Unix.create_process_env cli
          [| cli; "serve"; "--socket"; socket; "-j"; string_of_int jobs |]
          (env ~jobs ~cache_dir:(Filename.concat dir "cache"))
          null log log)
  in
  { pid; socket; conn = None; reaped = false }

let exited t =
  t.reaped
  ||
  match Unix.waitpid [ Unix.WNOHANG ] t.pid with
  | 0, _ -> false
  | _ ->
    t.reaped <- true;
    true

(* Connect, retrying while the daemon binds its socket. *)
let connect ?(timeout_s = 20.0) t =
  let deadline = Measure.now () +. timeout_s in
  let rec go () =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX t.socket) with
    | () ->
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO response_timeout_s;
      t.conn <- Some (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
      Unix.close fd;
      if exited t then failwith "cobra serve exited before accepting connections";
      if Measure.now () > deadline then failwith "cobra serve did not start";
      Unix.sleepf 0.002;
      go ()
  in
  go ()

let disconnect t =
  match t.conn with
  | Some (fd, _, _) ->
    t.conn <- None;
    (try Unix.close fd with Unix.Unix_error _ -> ())
  | None -> ()

let event j = Json.str_member "event" j ~default:""

(* Send one request line and return its response events, up to but not
   including "done". A broken or timed-out connection is dropped, so every
   later request fails fast instead of reading stale lines. *)
let request t line =
  match t.conn with
  | None -> failwith "no connection to cobra serve"
  | Some (_, ic, oc) -> (
    let rec read acc =
      match Json.of_string (input_line ic) with
      | Error e -> failwith ("malformed response line: " ^ e)
      | Ok j -> if event j = "done" then List.rev acc else read (j :: acc)
    in
    try
      output_string oc line;
      output_char oc '\n';
      flush oc;
      read []
    with
    | End_of_file ->
      disconnect t;
      failwith "cobra serve closed the connection"
    | Sys_error m ->
      disconnect t;
      failwith ("cobra serve did not answer: " ^ m))

let ping t =
  match request t {|{"op": "ping"}|} with
  | [ j ] when event j = "pong" -> ()
  | _ -> failwith "ping was not answered with a pong"

let peak_rss_mb t = Measure.peak_rss_mb (string_of_int t.pid)

(* Ask the daemon to exit and reap it, killing it when it cannot be asked
   or does not exit in time. Safe on a daemon that never started. *)
let stop t =
  let asked =
    Option.is_some t.conn
    &&
    match request t {|{"op": "shutdown"}|} with
    | _ -> true
    | exception Failure _ -> false
  in
  disconnect t;
  if not asked then (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
  let deadline = Measure.now () +. 10.0 in
  while not (exited t) do
    if Measure.now () > deadline then begin
      (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] t.pid);
      t.reaped <- true
    end
    else Unix.sleepf 0.002
  done

(* A started daemon that has answered a ping; stopped again when it does not. *)
let launch ~cli ~dir ~jobs =
  let t = start ~cli ~dir ~jobs in
  match
    connect t;
    ping t
  with
  | () -> t
  | exception e ->
    stop t;
    raise e
