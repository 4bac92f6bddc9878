(* One run's inputs, sizes, results and failures, and the checks on its
   exact simulated counters. *)

module Designs = Cobra_eval.Designs
module Json = Cobra_stats.Json

let default_seed = 1
let pins_path = "perfbench/pins.json"

type size = {
  trace_branches : int;  (** branches exported into the run's trace *)
  uarch_insns : int;  (** committed instructions per uarch cell *)
  setups : int;  (** set-ups per run; setup_s is their median *)
  min_rounds : int;  (** fewest rounds of the timed loop *)
  mix : int * int * int * int;  (** one serve round: cold sweeps, warm sweeps, capped replays, repeats *)
  layer_branches : int;  (** trace prefix the per-layer replays use *)
  layer_reps : int;
  micro_iters : int;  (** calls per sample of the Bits and Json loops *)
}

(* The bench sections' documented shapes at 1/50: perf_replay's and
   perf_compiled's 1M-branch trace gives 20k branches, perf's 400k-insn
   uarch runs give 8k instructions a cell, and perf_snapshot's sweep
   shape is scaled in Mix. *)
let full =
  {
    trace_branches = 20_000;
    uarch_insns = 8_000;
    setups = 7;
    min_rounds = 3;
    mix = (3, 15, 4, 100);
    layer_branches = 20_000;
    layer_reps = 9;
    micro_iters = 200_000;
  }

(* Seconds, not minutes: the self-check size. *)
let tiny =
  {
    trace_branches = 3_000;
    uarch_insns = 2_000;
    setups = 1;
    min_rounds = 1;
    mix = (2, 2, 2, 12);
    layer_branches = 1_000;
    layer_reps = 1;
    micro_iters = 1_000;
  }

(* A workload is one seeded kernel: its branch trace feeds the replay and
   serve phases, and the uarch phase runs it beside one SPEC-like kernel
   with a program image, so wrong-path fetch decodes real instructions. *)
type workload = {
  name : string;
  kernel : seed:int -> unit -> Cobra_isa.Trace.stream;
  spec : string;
}

let workloads =
  [
    { name = "h2p-mix"; kernel = (fun ~seed -> Cobra_workloads.Kernels.h2p_mix ~seed); spec = "x264" };
    {
      name = "aliasing";
      kernel = (fun ~seed -> Cobra_workloads.Kernels.aliasing ~sites:32 ~seed);
      spec = "mcf";
    };
  ]

let replay_designs = [ Designs.gshare_only; Designs.tage_l ]
let setup_designs = [ Designs.gshare_only; Designs.tourney; Designs.tage_l ]
let uarch_designs = [ Designs.tourney; Designs.b2; Designs.tage_l ]
let sweep_designs = [ Designs.tourney; Designs.tage_l ]
let engines : Cobra_trace_replay.Replay.engine_kind list = [ `Compiled; `Interpreted ]

(* Metric-name form of a design name: "TAGE-L" -> "tage_l". *)
let key (d : Designs.t) = String.map (function '-' -> '_' | c -> Char.lowercase_ascii c) d.name

type t = {
  w : workload;
  seed : int;
  size : size;
  seconds : float;
  cli : string;  (** the cobra_cli executable *)
  work : string;  (** scratch directory inside the checkout *)
  jobs : int;
  inject_mismatch : bool;
  mutable attempted : int;
  mutable failed : int;
  mutable metrics : (string * float * string) list;  (** newest first *)
  mutable counts : (string * int) list;  (** exact serve counts of the first round *)
}

let trace_path t = Filename.concat t.work "trace.cobt"

let fresh_dir t name =
  let d = Filename.concat t.work name in
  Unix.mkdir d 0o755;
  d

let fail t msg =
  t.failed <- t.failed + 1;
  Printf.eprintf "perfbench: FAILED %s\n%!" msg

(* One operation: counted as attempted, and as failed when it raises or
   returns [Error]. *)
let attempt t what f =
  t.attempted <- t.attempted + 1;
  match f () with
  | Ok () -> ()
  | Error m -> fail t (what ^ ": " ^ m)
  | exception e -> fail t (what ^ ": " ^ Printexc.to_string e)

(* A metric line; with [~record:false] only printed, not put in the result. *)
let metric t ?(record = true) ?(note = "") name value unit =
  if not (Float.is_finite value) then fail t (Printf.sprintf "%s is not finite" name)
  else begin
    if record then t.metrics <- (name, value, unit) :: t.metrics;
    Printf.printf "%-48s %14.6g %-11s%s\n%!" name value unit (if note = "" then "" else " " ^ note)
  end

let samples xs =
  let a = Measure.sorted xs in
  Printf.sprintf "median of %d, range %.4g..%.4g" (Array.length a) a.(0) a.(Array.length a - 1)

(* The median of [xs] as metric [name], with the sample count. *)
let median_metric t name unit xs =
  if xs <> [] then metric t name (Measure.median xs) unit ~note:(samples xs)

(* The best of [xs] as metric [name]: the highest when [higher] is better,
   else the lowest. The host's cores are shared, and its neighbours' load
   comes in spells that slow every sample taken during them by up to half
   and can fill half a run, so a run's median mostly measures the
   neighbours. Work that only gets slower under interference is measured
   by its best sample. *)
let best_metric t ?record ~higher ?(note = "") name unit xs =
  if xs <> [] then begin
    let a = Measure.sorted xs in
    let n = Array.length a in
    metric t ?record name (if higher then a.(n - 1) else a.(0)) unit
      ~note:(Printf.sprintf "best of %d, median %.4g%s" n (Measure.median xs) note)
  end

(* ---- exact counters: determinism, engine agreement and pins ---------- *)

let show cs = String.concat " " (List.map (fun (c, v) -> Printf.sprintf "%s=%d" c v) cs)
let refs : (string, (string * int) list) Hashtbl.t = Hashtbl.create 32

let pins =
  lazy
    (match In_channel.with_open_text pins_path In_channel.input_all with
    | exception Sys_error _ -> Json.Null
    | s -> ( match Json.of_string s with Ok j -> j | Error e -> failwith (pins_path ^ ": " ^ e)))

let pins_apply t = t.seed = default_seed && t.size == full

let pinned t k =
  Option.bind (Json.member t.w.name (Lazy.force pins)) (Json.member k)
  |> Option.map (function
       | Json.Obj kvs -> List.map (fun (c, v) -> (c, Option.value (Json.to_int v) ~default:(-1))) kvs
       | _ -> [])

(* Every result under one key must equal the first; at the default seed and
   size the first must also equal the pinned value. *)
let check_counters t k cs =
  match Hashtbl.find_opt refs k with
  | Some first ->
    if first = cs then Ok ()
    else Error (Printf.sprintf "%s: %s, but the first run gave %s" k (show cs) (show first))
  | None -> (
    Hashtbl.replace refs k cs;
    if not (pins_apply t) then Ok ()
    else
      match pinned t k with
      | None -> Error (Printf.sprintf "%s: no pinned counters in %s" k pins_path)
      | Some pin ->
        if pin = cs then Ok () else Error (Printf.sprintf "%s: %s, pinned %s" k (show cs) (show pin)))

let counters_json cs = Json.Obj (List.map (fun (c, v) -> (c, Json.Int v)) cs)
let sorted_refs () = List.sort compare (List.of_seq (Hashtbl.to_seq refs))

(* The last two stdout lines: the run's exact counts, then the result. The
   counts line of a default-seed run holds what pins.json pins. *)
let report t =
  let counts =
    List.map (fun (k, cs) -> (k, counters_json cs)) (sorted_refs ())
    @ List.map (fun (k, v) -> (k, Json.Int v)) t.counts
  in
  print_endline ("counters " ^ Json.to_string (Json.Obj counts));
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (t.failed = 0));
            ("attempted", Json.Int (max 1 t.attempted));
            ("failed", Json.Int t.failed);
            ( "metrics",
              Json.Obj
                (List.rev_map
                   (fun (name, value, unit) ->
                     (name, Json.Obj [ ("value", Json.Float value); ("unit", Json.String unit) ]))
                   t.metrics) );
          ]))
