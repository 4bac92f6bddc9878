(* Slot word layout, low bits first. Each field's known bit is its lowest
   bit and its value bits sit above it, so a field's mask is its known bit
   times a constant, and a value bit is never set without its known bit. *)
let branch_known = 0x1
let branch_true = 0x2
let kind_known_bit = 0x4
let kind_shift = 3
let taken_known_bit = 0x40
let taken_true = 0x80
let target_known_bit = 0x100

type t = { words : int array; targets : int array }

let create ~width = { words = Array.make width 0; targets = Array.make width 0 }
let width r = Array.length r.words

let clear_from r lo hi =
  for i = lo to hi - 1 do
    r.words.(i) <- 0
  done

let clear r = clear_from r 0 (width r)

let set_taken r i b =
  r.words.(i) <- (if b then taken_known_bit lor taken_true else taken_known_bit)

let kind_bits k = kind_known_bit lor (Types.branch_kind_to_int k lsl kind_shift)

let set_branch r i ~kind ~target =
  r.words.(i) <- branch_known lor branch_true lor kind_bits kind lor target_known_bit;
  r.targets.(i) <- target

let set_full r i ~kind ~taken ~target =
  r.words.(i) <-
    branch_known lor branch_true lor kind_bits kind lor taken_known_bit
    lor (if taken then taken_true else 0)
    lor target_known_bit;
  r.targets.(i) <- target

let set r i (op : Types.opinion) =
  let bool known value = function
    | None -> 0
    | Some b -> if b then known lor value else known
  in
  r.words.(i) <-
    bool branch_known branch_true op.o_branch
    lor (match op.o_kind with None -> 0 | Some k -> kind_bits k)
    lor bool taken_known_bit taken_true op.o_taken
    lor (match op.o_target with None -> 0 | Some _ -> target_known_bit);
  r.targets.(i) <- (match op.o_target with None -> 0 | Some v -> v)

let has r i bits = r.words.(i) land bits = bits
let branch r i = has r i (branch_known lor branch_true)
let taken_known r i = has r i taken_known_bit
let taken r i = has r i taken_true
let kind_known r i = has r i kind_known_bit
let kind r i = Types.branch_kind_of_int ((r.words.(i) lsr kind_shift) land 7)

(* Cond encodes as 0, so a known kind with nonzero value bits is one of the
   unconditional kinds. *)
let unconditional r i =
  let w = r.words.(i) in
  w land kind_known_bit <> 0 && (w lsr kind_shift) land 7 <> 0

let target_known r i = has r i target_known_bit
let target r i = r.targets.(i)

let get r i : Types.opinion =
  let w = r.words.(i) in
  let bool known value = if w land known = 0 then None else Some (w land value <> 0) in
  {
    o_branch = bool branch_known branch_true;
    o_kind = (if w land kind_known_bit = 0 then None else Some (kind r i));
    o_taken = bool taken_known_bit taken_true;
    o_target = (if w land target_known_bit = 0 then None else Some r.targets.(i));
  }

let to_prediction r = Array.init (width r) (get r)

let of_prediction (p : Types.prediction) =
  let r = create ~width:(Array.length p) in
  Array.iteri (set r) p;
  r

let equal a b =
  width a = width b
  &&
  let rec same i =
    i >= width a
    || a.words.(i) = b.words.(i)
       && (a.words.(i) land target_known_bit = 0 || a.targets.(i) = b.targets.(i))
       && same (i + 1)
  in
  same 0

let blit ~src ~dst ~len =
  for i = 0 to len - 1 do
    dst.words.(i) <- src.words.(i);
    dst.targets.(i) <- src.targets.(i)
  done

(* The mask of the fields [s] knows: each known bit times its field's
   width in ones, so no branch. *)
let known_fields s =
  ((s land branch_known) * 0x3)
  lor ((s land kind_known_bit) * 0xf)
  lor ((s land taken_known_bit) * 0x3)
  lor (s land target_known_bit)

let merge_into ~strong ~weak ~dst ~len =
  for i = 0 to len - 1 do
    let s = strong.words.(i) and w = weak.words.(i) in
    if s = 0 then begin
      dst.words.(i) <- w;
      dst.targets.(i) <- weak.targets.(i)
    end
    else begin
      dst.words.(i) <- s lor (w land lnot (known_fields s));
      dst.targets.(i) <-
        (if s land target_known_bit <> 0 then strong.targets.(i) else weak.targets.(i))
    end
  done

let redirect_bits =
  branch_known lor branch_true lor taken_known_bit lor taken_true lor target_known_bit

let redirects r i = has r i redirect_bits

let rec taken_slot_from r len i =
  if i >= len then -1 else if redirects r i then i else taken_slot_from r len (i + 1)

let taken_slot r ~max_len = taken_slot_from r (min max_len (width r)) 0

let packet_len r ~max_len =
  let len = min max_len (width r) in
  let i = taken_slot_from r len 0 in
  if i < 0 then len else i + 1

(* A known branch whose kind is unknown or Cond. *)
let cond_slot r i =
  let w = r.words.(i) in
  w land (branch_known lor branch_true) = branch_known lor branch_true
  && (w land kind_known_bit = 0 || (w lsr kind_shift) land 7 = 0)

let rec direction_bits_loop r len i out n =
  if i >= len then n
  else
    let n =
      if cond_slot r i then begin
        out.(n) <- taken r i;
        n + 1
      end
      else n
    in
    if redirects r i then n else direction_bits_loop r len (i + 1) out n

let direction_bits_into r ~packet_len out =
  direction_bits_loop r (min packet_len (width r)) 0 out 0

let pp ppf r = Types.pp_prediction ppf (to_prediction r)
