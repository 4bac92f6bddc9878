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
  (* one vector per entry: the compiled engine shifts entries in place *)
  { index_bits; hist_bits = bits; table = Array.init entries (fun _ -> Bits.zero bits) }

let entries t = Array.length t.table
let bits t = t.hist_bits
let index t ~pc = Hashing.pc_index ~pc ~bits:t.index_bits
let read t ~pc = t.table.(index t ~pc)
let push t ~pc b = t.table.(index t ~pc) <- Bits.shift_in_lsb t.table.(index t ~pc) b
let push_in_place t ~pc b = Bits.shift_in_lsb_in_place t.table.(index t ~pc) b

let nth t i = t.table.(i)

let set_nth t i v =
  if Bits.width v <> t.hist_bits then
    invalid_arg "Lhist_provider.set_nth: width mismatch";
  t.table.(i) <- v

let restore t ~pc snapshot =
  if Bits.width snapshot <> t.hist_bits then
    invalid_arg "Lhist_provider.restore: snapshot width mismatch";
  t.table.(index t ~pc) <- snapshot

let storage t = Storage.make ~sram_bits:(entries t * t.hist_bits) ()
