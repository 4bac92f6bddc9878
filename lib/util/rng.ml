type t = { mutable state : int64 }

let create ~seed = { state = Int64.of_int seed }
let copy t = { state = t.state }
let state t = t.state

let advance s = Int64.add s 0x9E3779B97F4A7C15L

let mix z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let next t =
  t.state <- advance t.state;
  mix t.state

let bits62 t = Int64.to_int (Int64.logand (next t) 0x3FFFFFFFFFFFFFFFL)

let int t bound =
  if bound < 1 then invalid_arg "Rng.int: bound < 1";
  bits62 t mod bound

let bool t = Int64.logand (next t) 1L = 1L
let unit_float z = Int64.to_float (Int64.shift_right_logical z 11) /. 9007199254740992.0
let float t bound = unit_float (next t) *. bound
let chance t p = float t 1.0 < p
