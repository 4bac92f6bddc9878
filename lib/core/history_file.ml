module Cb = Cobra_util.Circular_buffer

type slot_state = { predicted : Types.resolved; mutable actual : Types.resolved option }

type entry = {
  e_token : int;
  e_ctx : Context.t;
  e_metas : Cobra_util.Bits.t array;
  e_stages : Types.prediction array;
  e_raw : Types.prediction array option;
  mutable e_slots : slot_state array;
  mutable e_packet_len : int;
  mutable e_dir_bits : bool list;
  mutable e_path_bits : bool list;
  mutable e_lhist_pushes : (int * Cobra_util.Bits.t) list;
}

type t = {
  buf : entry Cb.t;
  meta_bits : int array;
  fetch_width : int;
  ghist_bits : int;
  lhist_bits : int;
}

let create ~capacity ~meta_bits ~fetch_width ~ghist_bits ~lhist_bits =
  { buf = Cb.create ~capacity; meta_bits; fetch_width; ghist_bits; lhist_bits }

let capacity t = Cb.capacity t.buf
let length t = Cb.length t.buf
let is_full t = Cb.is_full t.buf

let validate t entry =
  if Array.length entry.e_metas <> Array.length t.meta_bits then
    invalid_arg "History_file.enqueue: metadata vector arity mismatch";
  Array.iteri
    (fun i m ->
      if Cobra_util.Bits.width m <> t.meta_bits.(i) then
        invalid_arg
          (Printf.sprintf "History_file.enqueue: component %d metadata is %d bits, declared %d"
             i (Cobra_util.Bits.width m) t.meta_bits.(i)))
    entry.e_metas

let enqueue t entry =
  validate t entry;
  Cb.enqueue t.buf entry

let get t seq = Cb.get t.buf seq
let contains t seq = Cb.contains t.buf seq
let oldest t = Cb.oldest t.buf
let dequeue t = Cb.dequeue t.buf
let drop_newer_than t seq = Cb.drop_newer_than t.buf seq
let iter_from t seq f = Cb.iter_from t.buf seq f
let to_list t = Cb.to_list t.buf

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
