type t = {
  mutable cycles : int;
  mutable instructions : int;
  mutable branches : int;
  mutable cond_branches : int;
  mutable mispredicts : int;
  mutable cond_mispredicts : int;
  mutable misfetches : int;
  mutable history_divergences : int;
  mutable replays : int;
  mutable flushes : int;
  mutable fetch_packets : int;
  mutable wrong_path_packets : int;
  mutable icache_stall_cycles : int;
  mutable frontend_stall_cycles : int;
}

let create () =
  {
    cycles = 0;
    instructions = 0;
    branches = 0;
    cond_branches = 0;
    mispredicts = 0;
    cond_mispredicts = 0;
    misfetches = 0;
    history_divergences = 0;
    replays = 0;
    flushes = 0;
    fetch_packets = 0;
    wrong_path_packets = 0;
    icache_stall_cycles = 0;
    frontend_stall_cycles = 0;
  }

let ipc t = if t.cycles = 0 then 0.0 else float_of_int t.instructions /. float_of_int t.cycles
let mpki t = Cobra_util.Stats.mpki ~misses:t.mispredicts ~instructions:t.instructions

let branch_accuracy t =
  if t.branches = 0 then 1.0
  else 1.0 -. (float_of_int t.mispredicts /. float_of_int t.branches)

(* The one list of counters, in their stable order: name, read, write. *)
let fields =
  [
    ("cycles", (fun t -> t.cycles), fun t v -> t.cycles <- v);
    ("instructions", (fun t -> t.instructions), fun t v -> t.instructions <- v);
    ("branches", (fun t -> t.branches), fun t v -> t.branches <- v);
    ("cond_branches", (fun t -> t.cond_branches), fun t v -> t.cond_branches <- v);
    ("mispredicts", (fun t -> t.mispredicts), fun t v -> t.mispredicts <- v);
    ("cond_mispredicts", (fun t -> t.cond_mispredicts), fun t v -> t.cond_mispredicts <- v);
    ("misfetches", (fun t -> t.misfetches), fun t v -> t.misfetches <- v);
    ( "history_divergences",
      (fun t -> t.history_divergences),
      fun t v -> t.history_divergences <- v );
    ("replays", (fun t -> t.replays), fun t v -> t.replays <- v);
    ("flushes", (fun t -> t.flushes), fun t v -> t.flushes <- v);
    ("fetch_packets", (fun t -> t.fetch_packets), fun t v -> t.fetch_packets <- v);
    ("wrong_path_packets", (fun t -> t.wrong_path_packets), fun t v -> t.wrong_path_packets <- v);
    ( "icache_stall_cycles",
      (fun t -> t.icache_stall_cycles),
      fun t v -> t.icache_stall_cycles <- v );
    ( "frontend_stall_cycles",
      (fun t -> t.frontend_stall_cycles),
      fun t v -> t.frontend_stall_cycles <- v );
  ]

let counters t = List.map (fun (name, get, _) -> (name, get t)) fields

let of_counters named =
  let t = create () in
  let rec fill fields named =
    match (fields, named) with
    | [], [] -> Some t
    | (name, _, set) :: fields, (name', v) :: named when String.equal name name' ->
      set t v;
      fill fields named
    | _ -> None
  in
  fill fields named

let pp ppf t =
  Format.fprintf ppf
    "cycles=%d insts=%d ipc=%.3f branches=%d mispredicts=%d mpki=%.2f acc=%.2f%% flushes=%d \
     misfetches=%d divergences=%d replays=%d"
    t.cycles t.instructions (ipc t) t.branches t.mispredicts (mpki t)
    (100.0 *. branch_accuracy t)
    t.flushes t.misfetches t.history_divergences t.replays
