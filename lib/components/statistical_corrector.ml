module Bitpack = Cobra_util.Bitpack
module Bits = Cobra_util.Bits
module Counter = Cobra_util.Counter
module Hashing = Cobra_util.Hashing
module Slab = Cobra_util.Slab
open Cobra

type config = {
  name : string;
  latency : int;
  index_bits : int;
  counter_bits : int;
  history_length : int;
  threshold : int;
  fetch_width : int;
}

let default ~name =
  {
    name;
    latency = 3;
    index_bits = 10;
    counter_bits = 6;
    history_length = 8;
    threshold = 12;
    fetch_width = 4;
  }

let make cfg =
  (* slab layout: one signed agreement counter per cell (cells carry the
     signed value directly; the +bias encoding exists only in metadata) *)
  let state = Slab.create (1 lsl cfg.index_bits) in
  let bias = 1 lsl cfg.counter_bits in
  let mask = (1 lsl cfg.index_bits) - 1 in
  let index (ctx : Context.t) ~slot ~incoming =
    (* [Hashing.combine] of the three parts, without building its list *)
    (Hashing.pc_index ~pc:(Context.slot_pc ctx slot) ~bits:cfg.index_bits
    lxor Hashing.folded_history ctx.ghist ~len:cfg.history_length ~bits:cfg.index_bits
    lxor Bool.to_int incoming)
    land mask
  in
  (* Metadata, one word per slot, low bits first: incoming-direction
     validity and value, then the (biased) agreement counter read at
     predict. *)
  let slot_bits = cfg.counter_bits + 3 in
  let meta_bits = cfg.fetch_width * slot_bits in
  let packer = Bitpack.Packer.create ~owner:cfg.name ~width:meta_bits in
  let predict (ctx : Context.t) ~pred_in ~out ~meta =
    if Array.length pred_in <> 1 then invalid_arg (cfg.name ^ ": expected exactly one predict_in");
    let base = pred_in.(0) in
    for slot = 0 to cfg.fetch_width - 1 do
      if not (Row.taken_known base slot) then Bitpack.Packer.add packer (bias lsl 2) ~bits:slot_bits
      else begin
        let incoming = Row.taken base slot in
        let c = Slab.get state (index ctx ~slot ~incoming) in
        Bitpack.Packer.add packer
          (1 lor (Bool.to_int incoming lsl 1)
          lor (Bitpack.field (c + bias) ~bits:(cfg.counter_bits + 1) lsl 2))
          ~bits:slot_bits;
        if -c > cfg.threshold then
          (* the counter has saturated against the incoming prediction *)
          Row.set_taken out slot (not incoming)
      end
    done;
    Bitpack.Packer.finish_into packer meta
  in
  let update (ev : Component.event) =
    for slot = 0 to cfg.fetch_width - 1 do
      let (r : Types.resolved) = ev.slots.(slot) in
      let w = Bits.extract_int ev.meta ~lo:(slot * slot_bits) ~len:slot_bits in
      if w land 1 = 1 && Types.cond_branch r then begin
        let incoming = (w lsr 1) land 1 = 1 in
        let dir = if incoming = r.r_taken then 1 else -1 in
        Slab.set state (index ev.ctx ~slot ~incoming)
          (Counter.update_signed ~bits:(cfg.counter_bits + 1) ((w lsr 2) - bias) ~dir)
      end
    done
  in
  Component.make ~name:cfg.name ~family:Component.Corrector ~latency:cfg.latency ~meta_bits
    ~fetch_width:cfg.fetch_width
    ~storage:
      (Storage.make ~sram_bits:((1 lsl cfg.index_bits) * (cfg.counter_bits + 1)) ())
    ~state ~predict ~update ()
