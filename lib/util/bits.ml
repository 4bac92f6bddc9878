(* Bitvectors are stored little-endian in 62-bit limbs, so every limb fits a
   non-negative OCaml [int]. Values are immutable; updates copy the (tiny)
   limb array. The [_in_place] functions, [blit] and [set_limb] are the one
   exception: they rewrite a buffer its owner never shares as a value. *)

let limb_bits = 62
let limb_mask = (1 lsl limb_bits) - 1

type t = { w : int; limbs : int array }

let width t = t.w

let limbs_for w = (w + limb_bits - 1) / limb_bits

let limb_count t = limbs_for t.w

let get_limb t i =
  if i < 0 || i >= limbs_for t.w then
    invalid_arg (Printf.sprintf "Bits.get_limb: limb %d out of [0,%d)" i (limbs_for t.w));
  t.limbs.(i)

let zero w =
  if w < 0 then invalid_arg "Bits.zero: negative width";
  { w; limbs = Array.make (limbs_for w) 0 }

let copy t = { t with limbs = Array.copy t.limbs }

(* Clear any stale bits above [w] in the top limb. *)
let normalize t =
  let n = limbs_for t.w in
  if n = 0 then t
  else begin
    let top_bits = t.w - ((n - 1) * limb_bits) in
    let mask = if top_bits >= limb_bits then limb_mask else (1 lsl top_bits) - 1 in
    t.limbs.(n - 1) <- t.limbs.(n - 1) land mask;
    t
  end

let of_int ~width:w v =
  if v < 0 then invalid_arg "Bits.of_int: negative value";
  let t = zero w in
  if limbs_for w > 0 then t.limbs.(0) <- v land limb_mask;
  if limbs_for w > 1 then t.limbs.(1) <- (v lsr limb_bits) land limb_mask;
  normalize t

let to_int t =
  if limbs_for t.w = 0 then 0
  else if t.w <= limb_bits then t.limbs.(0)
  else t.limbs.(0)

let check_index t i name =
  if i < 0 || i >= t.w then invalid_arg (Printf.sprintf "Bits.%s: index %d out of [0,%d)" name i t.w)

let get t i =
  check_index t i "get";
  (t.limbs.(i / limb_bits) lsr (i mod limb_bits)) land 1 = 1

let set t i b =
  check_index t i "set";
  let limbs = Array.copy t.limbs in
  let j = i / limb_bits and k = i mod limb_bits in
  if b then limbs.(j) <- limbs.(j) lor (1 lsl k)
  else limbs.(j) <- limbs.(j) land (lnot (1 lsl k));
  { t with limbs }

let set_limb t i v =
  if i < 0 || i >= limbs_for t.w then
    invalid_arg (Printf.sprintf "Bits.set_limb: limb %d out of [0,%d)" i (limbs_for t.w));
  if v < 0 then invalid_arg "Bits.set_limb: negative limb";
  t.limbs.(i) <- v land limb_mask;
  if i = limbs_for t.w - 1 then ignore (normalize t)

let blit ~src ~dst =
  if src.w <> dst.w then
    invalid_arg (Printf.sprintf "Bits.blit: width %d into width %d" src.w dst.w);
  Array.blit src.limbs 0 dst.limbs 0 (limbs_for src.w)

let shift_in_lsb_in_place t b =
  let n = limbs_for t.w in
  if n > 0 then begin
    let limbs = t.limbs in
    let carry = ref (if b then 1 else 0) in
    for j = 0 to n - 1 do
      let v = Array.unsafe_get limbs j in
      Array.unsafe_set limbs j (((v lsl 1) lor !carry) land limb_mask);
      carry := (v lsr (limb_bits - 1)) land 1
    done;
    ignore (normalize t)
  end

let shift_in_lsb t b =
  if t.w = 0 then t
  else begin
    let n = limbs_for t.w in
    let limbs = Array.make n 0 in
    let carry = ref (if b then 1 else 0) in
    for j = 0 to n - 1 do
      let v = t.limbs.(j) in
      limbs.(j) <- ((v lsl 1) lor !carry) land limb_mask;
      carry := (v lsr (limb_bits - 1)) land 1
    done;
    normalize { t with limbs }
  end

(* Read up to a limb's worth of bits starting at [lo]; bits beyond the
   width read as zero. *)
let extract_int t ~lo ~len =
  if len < 0 || len > limb_bits then invalid_arg "Bits.extract_int: len out of [0,62]";
  if lo < 0 then invalid_arg "Bits.extract_int: negative lo";
  if len = 0 then 0
  else begin
    let n = limbs_for t.w in
    let j = lo / limb_bits and k = lo mod limb_bits in
    let low = if j >= n then 0 else t.limbs.(j) lsr k in
    let v =
      if k + len <= limb_bits || j + 1 >= n then low
      else low lor (t.limbs.(j + 1) lsl (limb_bits - k))
    in
    v land ((1 lsl len) - 1)
  end

let init w f =
  let t = zero w in
  let n = limbs_for w in
  for j = 0 to n - 1 do
    let base = j * limb_bits in
    let top = min limb_bits (w - base) in
    let limb = ref 0 in
    for i = 0 to top - 1 do
      if f (base + i) then limb := !limb lor (1 lsl i)
    done;
    t.limbs.(j) <- !limb
  done;
  t

let extract t ~lo ~len =
  if len < 0 then invalid_arg "Bits.extract: negative len";
  if lo < 0 then invalid_arg "Bits.extract: negative lo";
  let r = zero len in
  let n = limbs_for len in
  for j = 0 to n - 1 do
    let base = j * limb_bits in
    r.limbs.(j) <- extract_int t ~lo:(lo + base) ~len:(min limb_bits (len - base))
  done;
  r

let concat ~hi ~lo =
  let w = hi.w + lo.w in
  let r = ref (zero w) in
  for i = 0 to lo.w - 1 do
    if get lo i then r := set !r i true
  done;
  for i = 0 to hi.w - 1 do
    if get hi i then r := set !r (lo.w + i) true
  done;
  !r

let fold_xor_sub t ~len n =
  if n < 1 || n > limb_bits then invalid_arg "Bits.fold_xor: bits out of [1,62]";
  let len = if len < t.w then len else t.w in
  let limbs = t.limbs in
  let nlimbs = Array.length limbs in
  (* track the limb position incrementally to avoid divisions *)
  let acc = ref 0 in
  let i = ref 0 and j = ref 0 and k = ref 0 in
  while !i < len do
    let rest = len - !i in
    let chunk = if n < rest then n else rest in
    let low = if !j >= nlimbs then 0 else limbs.(!j) lsr !k in
    let v =
      if !k + chunk <= limb_bits || !j + 1 >= nlimbs then low
      else low lor (limbs.(!j + 1) lsl (limb_bits - !k))
    in
    acc := !acc lxor (v land ((1 lsl chunk) - 1));
    i := !i + n;
    k := !k + n;
    if !k >= limb_bits then begin
      k := !k - limb_bits;
      incr j
    end
  done;
  !acc

let fold_xor t n = fold_xor_sub t ~len:t.w n

(* Raw [n]-bit chunk at bit offset [i]. Top level, with the limbs passed
   in: a local closure over them would be allocated on every fold. *)
let chunk_at limbs nlimbs n i =
  let j = i / limb_bits and k = i mod limb_bits in
  let low = if j >= nlimbs then 0 else limbs.(j) lsr k in
  let v =
    if k + n <= limb_bits || j + 1 >= nlimbs then low
    else low lor (limbs.(j + 1) lsl (limb_bits - k))
  in
  v land ((1 lsl n) - 1)

(* Shared-prefix batch fold: [fold_xor_sub t ~len n] for ascending [lens]
   visits the same leading chunks over and over; one pass with running
   prefix state answers every length. Must stay bit-identical to
   [fold_xor_sub] — the chunking below mirrors its loop exactly. *)
let fold_xor_sub_multi t ~lens n ~out =
  if n < 1 || n > limb_bits then
    invalid_arg "Bits.fold_xor_sub_multi: bits out of [1,62]";
  let m = Array.length lens in
  if Array.length out <> m then
    invalid_arg "Bits.fold_xor_sub_multi: out length must match lens";
  let limbs = t.limbs in
  let nlimbs = Array.length limbs in
  let prefix = ref 0 in
  let pos = ref 0 in
  let prev_len = ref 0 in
  for q = 0 to m - 1 do
    if lens.(q) < !prev_len then
      invalid_arg "Bits.fold_xor_sub_multi: lens must be ascending";
    prev_len := lens.(q);
    let len = if lens.(q) < t.w then lens.(q) else t.w in
    while !pos + n <= len do
      prefix := !prefix lxor chunk_at limbs nlimbs n !pos;
      pos := !pos + n
    done;
    let rem = len - !pos in
    out.(q) <-
      (if rem <= 0 then !prefix
       else !prefix lxor (chunk_at limbs nlimbs n !pos land ((1 lsl rem) - 1)))
  done

let popcount t =
  let count = ref 0 in
  for i = 0 to t.w - 1 do
    if get t i then incr count
  done;
  !count

let equal a b = a.w = b.w && Array.for_all2 ( = ) a.limbs b.limbs

let compare a b =
  let c = Int.compare a.w b.w in
  if c <> 0 then c
  else
    (* Compare from the most significant limb down. *)
    let rec loop j =
      if j < 0 then 0
      else
        let c = Int.compare a.limbs.(j) b.limbs.(j) in
        if c <> 0 then c else loop (j - 1)
    in
    loop (limbs_for a.w - 1)

let to_string t = String.init t.w (fun i -> if get t (t.w - 1 - i) then '1' else '0')

let of_string s =
  let w = String.length s in
  let r = ref (zero w) in
  String.iteri
    (fun i c ->
      match c with
      | '1' -> r := set !r (w - 1 - i) true
      | '0' -> ()
      | _ -> invalid_arg "Bits.of_string: expected '0' or '1'")
    s;
  !r

let pp ppf t = Format.fprintf ppf "%db'%s" t.w (to_string t)
