(* Timing, allocation and order statistics. *)

let now = Unix.gettimeofday

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Measure.median: no samples"
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* 1-based nearest rank of percentile [p] among [n] samples. Rounded
   before the ceiling, so that p90 of 100 is rank 90, not 91. *)
let rank p n = int_of_float (Float.ceil (Float.round (p *. float_of_int n *. 1e3 /. 100.0) /. 1e3))

(* Nearest-rank percentile. *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Measure.percentile: no samples";
  a.(max 0 (min (n - 1) (rank p n - 1)))

(* The highest of the usual percentiles that leaves at least ten of [n]
   samples beyond it; p50 when no percentile does. *)
let tail_percentile n =
  List.fold_left (fun best p -> if n - rank p n >= 10 then p else best) 50.0 [ 50.0; 75.0; 90.0; 95.0; 99.0; 99.9 ]

(* CPU seconds this process has used. Work done inside the benchmark
   process is timed in CPU seconds: time the virtual machine's CPU is
   stolen by other guests does not count, so a busy neighbour does not
   read as a slower simulator. Waits on other processes (the daemon, file
   I/O, domain spawns) are timed on the wall clock. *)
let cpu_now () =
  let t = Unix.times () in
  t.tms_utime +. t.tms_stime

(* [f ()] with the seconds it took and the bytes it allocated. *)
let timed ?(wall = false) f =
  let clock = if wall then now else cpu_now in
  let a0 = Gc.allocated_bytes () in
  let t0 = clock () in
  let v = f () in
  let t1 = clock () in
  let a1 = Gc.allocated_bytes () in
  (v, t1 -. t0, a1 -. a0)

(* [timed] from a collected heap, so that a sample does not pay for the
   garbage an earlier one left behind. *)
let sample f =
  Gc.full_major ();
  timed f

let fastest xs = (sorted xs).(0)

(* [reps] calls of [f], each on a fresh [prepare ()] made outside the
   timer: the last result, the fastest call's seconds (Ctx.best_metric
   says why) and the median bytes. *)
let repeat ?wall ~reps ~prepare f =
  let rec go k last secs allocs =
    match last with
    | Some v when k = 0 -> (v, fastest secs, median allocs)
    | _ ->
      let x = prepare () in
      let v, dt, da = timed ?wall (fun () -> f x) in
      go (k - 1) (Some v) (dt :: secs) (da :: allocs)
  in
  go (max 1 reps) None [] []

(* [reps] rounds of the [fs], one sample of each per round: interleaved,
   so a slow spell of the machine falls on every [f] alike. [f ()] sets up
   outside the timer and returns the call to time. The fastest seconds and
   the median bytes of each. *)
let interleaved ~reps fs =
  let secs = Array.make (List.length fs) [] and allocs = Array.make (List.length fs) [] in
  for _ = 1 to max 1 reps do
    List.iteri
      (fun i f ->
        let call = f () in
        let (), dt, da = sample call in
        secs.(i) <- dt :: secs.(i);
        allocs.(i) <- da :: allocs.(i))
      fs
  done;
  List.init (List.length fs) (fun i -> (fastest secs.(i), median allocs.(i)))

(* High-water resident set of a process ("self" or a pid), in MB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  let hwm =
    In_channel.with_open_text path In_channel.input_lines
    |> List.find_map (fun l ->
           match String.split_on_char ':' l with
           | [ "VmHWM"; v ] -> Scanf.sscanf (String.trim v) "%d kB" Option.some
           | _ -> None)
  in
  match hwm with
  | Some kb -> float_of_int kb /. 1024.0
  | None -> failwith ("no VmHWM in " ^ path)
