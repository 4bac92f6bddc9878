module Bits = Cobra_util.Bits
module Hashing = Cobra_util.Hashing

type t = { index_bits : int; hist_bits : int; table : Bits.t array }

let create ~entries ~bits =
  if not (Cobra_util.Bitops.is_power_of_two entries) then
    invalid_arg "Lhist_provider.create: entries must be a power of two";
  if bits < 1 then invalid_arg "Lhist_provider.create: bits < 1";
  let index_bits =
    (* log2 of a power of two *)
    let rec log2 acc n = if n <= 1 then acc else log2 (acc + 1) (n lsr 1) in
    log2 0 entries
  in
  (* one vector per entry: both engines shift entries in place *)
  { index_bits; hist_bits = bits; table = Array.init entries (fun _ -> Bits.zero bits) }

let entries t = Array.length t.table
let bits t = t.hist_bits
let index t ~pc = Hashing.pc_index ~pc ~bits:t.index_bits
let read t ~pc = t.table.(index t ~pc)
let push_in_place t ~pc b = Bits.shift_in_lsb_in_place t.table.(index t ~pc) b
let limbs t = Bits.limbs_for t.hist_bits

let save_limbs t ~pc log ~pos =
  let v = t.table.(index t ~pc) in
  for i = 0 to Bits.limb_count v - 1 do
    log.(pos + i) <- Bits.get_limb v i
  done

let restore_limbs t ~pc log ~pos =
  let v = t.table.(index t ~pc) in
  for i = 0 to Bits.limb_count v - 1 do
    Bits.set_limb v i log.(pos + i)
  done

let nth t i = t.table.(i)

let storage t = Storage.make ~sram_bits:(entries t * t.hist_bits) ()
