type entry = {
  mutable e_token : int;
  e_ctx : Context.t;
  e_metas : Cobra_util.Bits.t array;
  e_stages : Row.t array;
  mutable e_raw : Row.t array option;
  e_predicted : Types.resolved array;
  e_actual : Types.resolved array;
  e_effective : Types.resolved array;
  mutable e_packet_len : int;
  e_dir_bits : bool array;
  mutable e_dir_len : int;
  mutable e_path : int;
  e_lhist_pcs : int array;
  e_lhist_prior : int array;
  mutable e_lhist_len : int;
  e_fire_evs : Component.event array;
  e_update_evs : Component.event array;
  e_mispredict_evs : Component.event array array;
}

let dir_bits e = List.init e.e_dir_len (fun i -> e.e_dir_bits.(i))

type t = {
  mutable ring : entry array;  (* [capacity] slots, allocated by the first enqueue *)
  capacity : int;
  mutable head : int;  (* sequence number of the oldest live entry *)
  mutable next : int;  (* sequence number the next enqueue gets *)
  meta_bits : int array;
  fetch_width : int;
  ghist_bits : int;
  lhist_bits : int;
}

let create ~capacity ~meta_bits ~fetch_width ~ghist_bits ~lhist_bits =
  if capacity < 1 then invalid_arg "History_file.create: capacity < 1";
  { ring = [||]; capacity; head = 0; next = 0; meta_bits; fetch_width; ghist_bits; lhist_bits }

let capacity t = t.capacity
let length t = t.next - t.head
let is_full t = length t = t.capacity

let enqueue t e =
  if is_full t then failwith "History_file.enqueue: full";
  if Array.length t.ring = 0 then t.ring <- Array.make t.capacity e;
  let seq = t.next in
  t.ring.(seq mod t.capacity) <- e;
  t.next <- seq + 1;
  seq

let contains t seq = seq >= t.head && seq < t.next

let get t seq =
  if not (contains t seq) then
    invalid_arg (Printf.sprintf "History_file.get: seq %d not in [%d,%d)" seq t.head t.next);
  t.ring.(seq mod t.capacity)

let oldest_seq t = t.head

let dequeue t =
  if length t = 0 then invalid_arg "History_file.dequeue: empty";
  let e = t.ring.(t.head mod t.capacity) in
  t.head <- t.head + 1;
  e

let next_seq t = t.next

let drop_newest t =
  if length t = 0 then invalid_arg "History_file.drop_newest: empty";
  t.next <- t.next - 1;
  t.ring.(t.next mod t.capacity)

(* 48-bit PCs, 3-bit kinds; a slot stores predicted and resolved outcomes. *)
let slot_bits = 2 * (1 + 3 + 1 + 48)

let entry_bits t =
  let meta_total = Array.fold_left ( + ) 0 t.meta_bits in
  48 (* pc *) + t.ghist_bits
  + (t.fetch_width * t.lhist_bits)
  + (t.fetch_width * slot_bits)
  + meta_total
  + 8 (* packet bookkeeping *)

let storage t = Storage.make ~sram_bits:(capacity t * entry_bits t) ()
