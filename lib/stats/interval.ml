type point = { p_start : int; p_insns : int; p_cycles : int; p_mispredicts : int }

type t = {
  capacity : int;
  mutable width : int;
  points : point array;
  mutable n : int;
  mutable base_insns : int;
  mutable base_cycles : int;
  mutable base_mispredicts : int;
}

let zero_point = { p_start = 0; p_insns = 0; p_cycles = 0; p_mispredicts = 0 }

let create ?(capacity = 512) ~width () =
  if width < 1 then invalid_arg "Interval.create: width < 1";
  if capacity < 2 then invalid_arg "Interval.create: capacity < 2";
  {
    capacity;
    width;
    points = Array.make capacity zero_point;
    n = 0;
    base_insns = 0;
    base_cycles = 0;
    base_mispredicts = 0;
  }

let width t = t.width

(* When the buffer is full, coalesce adjacent pairs and double the bucket
   width: the series keeps covering the whole run at half the resolution,
   bounding memory for arbitrarily long runs. *)
let coalesce t =
  let pairs = t.n / 2 in
  for i = 0 to pairs - 1 do
    let a = t.points.(2 * i) and b = t.points.((2 * i) + 1) in
    t.points.(i) <-
      {
        p_start = a.p_start;
        p_insns = a.p_insns + b.p_insns;
        p_cycles = a.p_cycles + b.p_cycles;
        p_mispredicts = a.p_mispredicts + b.p_mispredicts;
      }
  done;
  if t.n land 1 = 1 then begin
    t.points.(pairs) <- t.points.(t.n - 1);
    t.n <- pairs + 1
  end
  else t.n <- pairs;
  t.width <- t.width * 2

let close t ~insns ~cycles ~mispredicts =
  if t.n = t.capacity then coalesce t;
  t.points.(t.n) <-
    {
      p_start = t.base_insns;
      p_insns = insns - t.base_insns;
      p_cycles = cycles - t.base_cycles;
      p_mispredicts = mispredicts - t.base_mispredicts;
    };
  t.n <- t.n + 1;
  t.base_insns <- insns;
  t.base_cycles <- cycles;
  t.base_mispredicts <- mispredicts

let sample t ~insns ~cycles ~mispredicts =
  if insns - t.base_insns >= t.width then close t ~insns ~cycles ~mispredicts

let flush t ~insns ~cycles ~mispredicts =
  if insns > t.base_insns || cycles > t.base_cycles then close t ~insns ~cycles ~mispredicts

let points t = Array.to_list (Array.sub t.points 0 t.n)

let ipc p = if p.p_cycles = 0 then 0.0 else float_of_int p.p_insns /. float_of_int p.p_cycles

let mpki p =
  if p.p_insns = 0 then 0.0
  else 1000.0 *. float_of_int p.p_mispredicts /. float_of_int p.p_insns

let point_to_json p =
  Json.Obj
    [
      ("start", Json.Int p.p_start);
      ("insns", Json.Int p.p_insns);
      ("cycles", Json.Int p.p_cycles);
      ("mispredicts", Json.Int p.p_mispredicts);
      ("ipc", Json.Float (ipc p));
      ("mpki", Json.Float (mpki p));
    ]
