let check_bits bits =
  if bits < 1 || bits > 30 then invalid_arg "Counter: bits out of [1,30]"

let max_value ~bits =
  check_bits bits;
  (1 lsl bits) - 1

let weakly_not_taken ~bits =
  check_bits bits;
  (1 lsl (bits - 1)) - 1

let weakly_taken ~bits =
  check_bits bits;
  1 lsl (bits - 1)

let is_taken ~bits v = v >= weakly_taken ~bits

let confidence ~bits v =
  let mid = weakly_taken ~bits in
  if v >= mid then v - mid else mid - 1 - v

(* Int-typed comparisons throughout: [Stdlib.min]/[max] are polymorphic,
   an out-of-line compare on every counter update. *)
let increment ~bits v =
  let top = max_value ~bits in
  if v + 1 < top then v + 1 else top

let decrement ~bits v =
  check_bits bits;
  if v - 1 > 0 then v - 1 else 0

let update ~bits v ~taken = if taken then increment ~bits v else decrement ~bits v

let signed_min ~bits =
  check_bits bits;
  -(1 lsl (bits - 1))

let signed_max ~bits =
  check_bits bits;
  (1 lsl (bits - 1)) - 1

let update_signed ~bits v ~dir =
  if dir > 0 then
    let top = signed_max ~bits in
    if v + 1 < top then v + 1 else top
  else if dir < 0 then
    let bottom = signed_min ~bits in
    if v - 1 > bottom then v - 1 else bottom
  else v

let is_valid ~bits v = v >= 0 && v <= max_value ~bits
