module Bitpack = Cobra_util.Bitpack
module Bits = Cobra_util.Bits
module Bitops = Cobra_util.Bitops
module Counter = Cobra_util.Counter
module Hashing = Cobra_util.Hashing
module Slab = Cobra_util.Slab
open Cobra

type config = {
  name : string;
  latency : int;
  entries : int;
  counter_bits : int;
  history_length : int;
  fetch_width : int;
}

let default ~name =
  { name; latency = 3; entries = 1024; counter_bits = 2; history_length = 12; fetch_width = 4 }

(* A sub-prediction's direction as a (valid, bit) field pair. *)
let dir_word row slot =
  if not (Row.taken_known row slot) then 0 else if Row.taken row slot then 3 else 1

let make cfg =
  if not (Bitops.is_power_of_two cfg.entries) then
    invalid_arg (cfg.name ^ ": entries must be a power of two");
  let index_bits = Bitops.log2_exact cfg.entries in
  (* slab layout: one chooser counter per cell, entry i at cell i *)
  let state = Slab.create cfg.entries in
  Slab.fill state (Counter.weakly_not_taken ~bits:cfg.counter_bits);
  let index (ctx : Context.t) ~slot =
    (* both operands are already masked to [index_bits], so a plain xor
       matches [Hashing.combine] without building its argument list *)
    Hashing.pc_index ~pc:(Context.slot_pc ctx slot) ~bits:index_bits
    lxor Context.folded_ghist ctx ~len:cfg.history_length ~bits:index_bits
  in
  let cb = cfg.counter_bits in
  let taken_at = Counter.weakly_taken ~bits:cb in
  (* Metadata, one word per slot, low bits first: validity and direction of
     each sub-prediction, then the chooser counter read at predict time. *)
  let slot_bits = 4 + cb in
  let meta_bits = cfg.fetch_width * slot_bits in
  let packer = Bitpack.Packer.create ~owner:cfg.name ~width:meta_bits in
  let predict (ctx : Context.t) ~pred_in ~out ~meta =
    if Array.length pred_in <> 2 then
      invalid_arg
        (Printf.sprintf "%s: tournament selector needs exactly 2 predict_in, got %d" cfg.name
           (Array.length pred_in));
    let p0 = pred_in.(0) and p1 = pred_in.(1) in
    let live = Context.live_bound ctx cfg.fetch_width in
    for slot = 0 to live - 1 do
      let d0 = dir_word p0 slot and d1 = dir_word p1 slot in
      let ctr = Slab.unsafe_get state (index ctx ~slot) in
      Bitpack.Packer.add packer
        (d0 lor (d1 lsl 2) lor (Bitpack.field ctr ~bits:cb lsl 4))
        ~bits:slot_bits;
      let chosen =
        if ctr >= taken_at then (if d1 <> 0 then d1 else d0) else if d0 <> 0 then d0 else d1
      in
      if chosen <> 0 && not (Row.unconditional p0 slot) then Row.set_taken out slot (chosen = 3)
    done;
    (* dead slots: keep the declared meta layout *)
    Bitpack.Packer.add_zeros packer ~bits:((cfg.fetch_width - live) * slot_bits);
    Bitpack.Packer.finish_into packer meta
  in
  let update (ev : Component.event) =
    for slot = 0 to cfg.fetch_width - 1 do
      let (r : Types.resolved) = ev.slots.(slot) in
      if Types.cond_branch r then begin
        let w = Bits.extract_int ev.meta ~lo:(slot * slot_bits) ~len:slot_bits in
        (* Train the chooser only when the sub-predictors disagreed: both
           valid (bits 0 and 2), directions (bits 1 and 3) differ. *)
        if w land 5 = 5 && (w lsr 1) land 1 <> (w lsr 3) land 1 then begin
          let toward_p1 = (w lsr 3) land 1 = 1 = r.r_taken in
          Slab.unsafe_set state (index ev.ctx ~slot)
            (Counter.update ~bits:cb (w lsr 4) ~taken:toward_p1)
        end
      end
    done
  in
  let storage =
    Storage.make ~sram_bits:(cfg.entries * cfg.counter_bits)
      ~logic_gates:(cfg.fetch_width * 50) ()
  in
  Component.make ~name:cfg.name ~family:Component.Selector ~latency:cfg.latency ~meta_bits
    ~fetch_width:cfg.fetch_width ~storage ~state ~predict ~update ()
