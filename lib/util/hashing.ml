let pc_bits pc = pc lsr 2

(* A while-loop over local refs: the refs never escape, so ocamlopt keeps
   them in registers — an inner recursive closure here would heap-allocate
   on every call of this extremely hot hash. The loop stops once the
   shifted value is 0: every later chunk would xor in zero. *)
let fold_int v ~width ~bits =
  if bits < 0 || bits > 62 then invalid_arg "Hashing.fold_int: bits out of [0,62]";
  if bits = 0 then 0
  else begin
    let mask = (1 lsl bits) - 1 in
    let acc = ref 0 in
    let v = ref (v land ((1 lsl (if width < 62 then width else 62)) - 1)) in
    let remaining = ref width in
    while !remaining > 0 && !v <> 0 do
      acc := !acc lxor (!v land mask);
      v := !v lsr bits;
      remaining := !remaining - bits
    done;
    !acc
  end

let pc_index ~pc ~bits = fold_int (pc_bits pc) ~width:62 ~bits

let folded_history h ~len ~bits = if bits = 0 then 0 else Bits.fold_xor_sub h ~len bits

(* murmur-style finalizer on native ints, restricted to 62 bits. *)
let mix2 a b =
  let z = a + ((b + 1) * 0x9E3779B9) in
  let z = (z lxor (z lsr 16)) * 0x85EBCA6B in
  let z = (z lxor (z lsr 13)) * 0xC2B2AE35 in
  (z lxor (z lsr 16)) land 0x3FFFFFFFFFFFFFFF

let combine ~bits values =
  let mask = (1 lsl bits) - 1 in
  List.fold_left (fun acc v -> acc lxor (v land mask)) 0 values
