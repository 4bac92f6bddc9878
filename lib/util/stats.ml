module Running = struct
  type t = { mutable n : int; mutable mean : float; mutable m2 : float }

  let create () = { n = 0; mean = 0.0; m2 = 0.0 }

  let add t x =
    t.n <- t.n + 1;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.n);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean))

  let count t = t.n
  let mean t = if t.n = 0 then 0.0 else t.mean
  let variance t = if t.n < 2 then 0.0 else t.m2 /. float_of_int (t.n - 1)
end

module Ratio = struct
  type t = { mutable hits : int; mutable total : int }

  let create () = { hits = 0; total = 0 }

  let add t ~hit =
    t.total <- t.total + 1;
    if hit then t.hits <- t.hits + 1

  let hit t = add t ~hit:true
  let miss t = add t ~hit:false
  let hits t = t.hits
  let total t = t.total
  let rate t = if t.total = 0 then 0.0 else float_of_int t.hits /. float_of_int t.total
end

let harmonic_mean xs =
  let xs = List.filter (fun x -> x > 0.0) xs in
  match xs with
  | [] -> 0.0
  | _ ->
    let inv_sum = List.fold_left (fun acc x -> acc +. (1.0 /. x)) 0.0 xs in
    float_of_int (List.length xs) /. inv_sum

let mean xs =
  match xs with
  | [] -> 0.0
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let percent_delta ~baseline v = (v -. baseline) /. baseline *. 100.0

let mpki ~misses ~instructions =
  if instructions = 0 then 0.0
  else float_of_int misses *. 1000.0 /. float_of_int instructions
