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
