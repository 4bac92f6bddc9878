module Bitops = Cobra_util.Bitops

type t = {
  cache_name : string;
  line_bits : int;
  set_bits : int;
  ways : int;
  tags : int array array;  (* set -> way -> tag (-1 invalid) *)
  ages : int array array;
  mutable clock : int;
  mutable hit_count : int;
  mutable miss_count : int;
}

let create ~name ~size_bytes ~ways ~line_bytes =
  if ways < 1 then invalid_arg "Cache.create: ways < 1";
  if not (Bitops.is_power_of_two line_bytes) then
    invalid_arg "Cache.create: line_bytes must be a power of two";
  let sets = size_bytes / (ways * line_bytes) in
  if sets < 1 || not (Bitops.is_power_of_two sets) then
    invalid_arg "Cache.create: size/ways/line must give a power-of-two set count";
  {
    cache_name = name;
    line_bits = Bitops.log2_exact line_bytes;
    set_bits = Bitops.log2_exact sets;
    ways;
    tags = Array.init sets (fun _ -> Array.make ways (-1));
    ages = Array.init sets (fun _ -> Array.make ways 0);
    clock = 0;
    hit_count = 0;
    miss_count = 0;
  }

let name t = t.cache_name

let split t addr =
  let line = addr lsr t.line_bits in
  (line land ((1 lsl t.set_bits) - 1), line lsr t.set_bits)

let find t set tag =
  let ways = t.tags.(set) in
  let rec loop w = if w >= t.ways then None else if ways.(w) = tag then Some w else loop (w + 1) in
  loop 0

let victim t set =
  let ages = t.ages.(set) in
  let best = ref 0 in
  for w = 1 to t.ways - 1 do
    if ages.(w) < ages.(!best) then best := w
  done;
  !best

let touch t set way =
  t.clock <- t.clock + 1;
  t.ages.(set).(way) <- t.clock

let fill t set tag =
  let w = victim t set in
  t.tags.(set).(w) <- tag;
  touch t set w

let access t ~addr =
  let set, tag = split t addr in
  match find t set tag with
  | Some w ->
    t.hit_count <- t.hit_count + 1;
    touch t set w;
    true
  | None ->
    t.miss_count <- t.miss_count + 1;
    fill t set tag;
    false

let probe t ~addr =
  let set, tag = split t addr in
  find t set tag <> None

let prefetch t ~addr =
  let set, tag = split t addr in
  match find t set tag with Some w -> touch t set w | None -> fill t set tag

let hits t = t.hit_count
let misses t = t.miss_count

