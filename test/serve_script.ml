(* A fixed script of `cobra serve` requests, run in-process through
   [Serve.handle_line] on one daemon value (no socket), printed as a
   transcript: each request line, then its response lines with the
   wall-clock fields ("ts", "elapsed_s") stripped, then the verdict.
   [dune runtest] diffs the output against golden/serve-script.expected
   under COBRA_CACHE=0 and a fixed COBRA_SEED, so it pins the protocol and
   every replay counter both engines answer with.

   Usage: serve_script.exe H2P_TRACE LOOP_TRACE LONG_TRACE *)

module Json = Cobra_stats.Json
module Serve = Cobra_serve.Serve

let rec strip = function
  | Json.Obj kvs ->
    Json.Obj
      (List.filter_map
         (fun (k, v) -> if k = "ts" || k = "elapsed_s" then None else Some (k, strip v))
         kvs)
  | Json.List l -> Json.List (List.map strip l)
  | j -> j

let requests ~h2p ~loop ~long =
  let q = Printf.sprintf "%S" in
  [
    {|{"op": "ping"}|};
    {|{"op": "ping", "id": "p1"}|};
    (* replays: every named design, both engines, each cap *)
    Printf.sprintf {|{"op": "replay", "id": "r1", "design": "Tourney", "trace": %s}|} (q h2p);
    Printf.sprintf
      {|{"op": "replay", "design": "Tourney", "trace": %s, "engine": "interpreted"}|} (q h2p);
    Printf.sprintf {|{"op": "replay", "design": "B2", "trace": %s, "max_insns": 500}|} (q h2p);
    Printf.sprintf
      {|{"op": "replay", "design": "B2", "trace": %s, "max_insns": 500, "engine": "interpreted"}|}
      (q h2p);
    Printf.sprintf {|{"op": "replay", "design": "TAGE-L", "trace": %s, "max_branches": 5000}|}
      (q long);
    Printf.sprintf
      {|{"op": "replay", "design": "TAGE-L", "trace": %s, "max_branches": 5000, "engine": "interpreted"}|}
      (q long);
    Printf.sprintf
      {|{"op": "replay", "design": "GShare", "trace": %s, "max_branches": 3000, "no_cache": true}|}
      (q long);
    Printf.sprintf
      {|{"op": "replay", "design": "GShare", "trace": %s, "max_branches": 3000, "engine": "interpreted"}|}
      (q long);
    Printf.sprintf {|{"op": "replay", "design": "TAGE-L", "trace": %s}|} (q loop);
    Printf.sprintf
      {|{"op": "replay", "id": "s1", "design": "Tourney", "trace": %s, "stats": true}|} (q h2p);
    (* sweeps: plain on both engines, windowed with verify, then repeated *)
    Printf.sprintf
      {|{"op": "sweep", "id": "w1", "designs": ["Tourney", "B2", "TAGE-L"], "traces": [%s, %s], "max_branches": 150}|}
      (q h2p) (q loop);
    Printf.sprintf
      {|{"op": "sweep", "traces": [%s], "max_branches": 2000, "engine": "interpreted"}|} (q long);
    Printf.sprintf
      {|{"op": "sweep", "id": "w2", "designs": ["TAGE-L", "GShare"], "traces": [%s], "warmup_branches": 2000, "window_branches": 1000, "windows": 3, "verify": true}|}
      (q long);
    Printf.sprintf
      {|{"op": "sweep", "id": "w3", "designs": ["TAGE-L", "GShare"], "traces": [%s], "warmup_branches": 2000, "window_branches": 1000, "windows": 3, "verify": true}|}
      (q long);
    Printf.sprintf
      {|{"op": "sweep", "designs": ["Tourney"], "traces": [%s], "warmup_branches": 100, "window_branches": 50, "windows": 2, "verify": true, "engine": "interpreted", "no_cache": true}|}
      (q h2p);
    {|{"op": "probe", "id": "pr1", "probes": ["ladder", "loop"], "targets": ["GSHARE6", "LOOP"], "seed": 7}|};
    {|{"op": "probe", "probes": ["alias"], "targets": ["BIM"]}|};
    (* malformed and misspelt requests *)
    {|{"op": |};
    {|not json|};
    {|{}|};
    {|{"op": 3}|};
    {|{"op": "pong", "id": "e1"}|};
    Printf.sprintf {|{"op": "replay", "design": "Tourney", "trace": %s, "max_branch": 5}|} (q h2p);
    Printf.sprintf {|{"op": "replay", "design": "NoSuch", "trace": %s}|} (q h2p);
    {|{"op": "replay", "design": "Tourney"}|};
    Printf.sprintf {|{"op": "replay", "design": "Tourney", "trace": %s, "max_branches": 0}|}
      (q h2p);
    Printf.sprintf {|{"op": "replay", "design": "Tourney", "trace": %s, "max_branches": "5"}|}
      (q h2p);
    Printf.sprintf {|{"op": "replay", "design": "Tourney", "trace": %s, "stats": "yes"}|} (q h2p);
    Printf.sprintf {|{"op": "replay", "design": "Tourney", "trace": %s, "engine": "jit"}|} (q h2p);
    {|{"op": "replay", "id": "e2", "design": "Tourney", "trace": "no-such.trace"}|};
    {|{"op": "sweep", "traces": []}|};
    Printf.sprintf
      {|{"op": "sweep", "traces": [%s], "warmup_branches": 64, "window_branches": 32, "max_branches": 10}|}
      (q h2p);
    Printf.sprintf {|{"op": "sweep", "traces": [%s], "verify": true}|} (q h2p);
    Printf.sprintf {|{"op": "sweep", "traces": [%s], "warmup_branches": 64}|} (q h2p);
    Printf.sprintf {|{"op": "sweep", "designs": ["Nope"], "traces": [%s]}|} (q h2p);
    {|{"op": "probe", "probes": ["nosuch"]}|};
    {|{"op": "shutdown", "id": "bye"}|};
  ]

let () =
  match Sys.argv with
  | [| _; h2p; loop; long |] ->
    let daemon =
      Serve.create { socket = "unused.sock"; jobs = 2; timeout_s = None }
    in
    List.iter
      (fun line ->
        print_endline ("> " ^ line);
        let verdict =
          Serve.handle_line daemon
            (fun s ->
              match Json.of_string s with
              | Ok j -> print_endline (Json.to_string (strip j))
              | Error e -> print_endline ("unparsable response (" ^ e ^ "): " ^ s))
            line
        in
        print_endline
          (match verdict with `Continue -> "= continue" | `Shutdown -> "= shutdown"))
      (requests ~h2p ~loop ~long)
  | _ ->
    prerr_endline "usage: serve_script.exe H2P_TRACE LOOP_TRACE LONG_TRACE";
    exit 2
