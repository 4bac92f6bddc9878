module Bitpack = Cobra_util.Bitpack
module Counter = Cobra_util.Counter
module Hashing = Cobra_util.Hashing
module Bits = Cobra_util.Bits
module Slab = Cobra_util.Slab
open Cobra

type config = {
  name : string;
  latency : int;
  pc_bits : int;
  history_bits : int;
  counter_bits : int;
  fetch_width : int;
}

let default ~name =
  { name; latency = 2; pc_bits = 6; history_bits = 6; counter_bits = 2; fetch_width = 4 }

let meta_layout cfg = List.init cfg.fetch_width (fun _ -> cfg.counter_bits)

let make cfg =
  let index_bits = cfg.pc_bits + cfg.history_bits in
  let entries = 1 lsl index_bits in
  (* slab layout: one counter per cell, entry (pc_part << history_bits | hist_part) *)
  let state = Slab.create entries in
  Slab.fill state (Counter.weakly_not_taken ~bits:cfg.counter_bits);
  let index (ctx : Context.t) ~slot =
    let pc_part = Hashing.pc_index ~pc:(Context.slot_pc ctx slot) ~bits:cfg.pc_bits in
    let hist_part = Bits.extract_int ctx.ghist ~lo:0 ~len:cfg.history_bits in
    (pc_part lsl cfg.history_bits) lor hist_part
  in
  let meta_bits = Bitpack.width_of (meta_layout cfg) in
  let predict ctx ~pred_in ~out ~meta =
    let base = match pred_in with [ p ] -> p | _ -> invalid_arg (cfg.name ^ ": one predict_in") in
    let counters = Array.init cfg.fetch_width (fun slot -> Slab.get state (index ctx ~slot)) in
    Array.iteri
      (fun slot c ->
        if not (Types.unconditional_in base slot) then
          out.(slot) <- Types.direction_hint ~taken:(Counter.is_taken ~bits:cfg.counter_bits c))
      counters;
    Bitpack.store ~owner:cfg.name
      (Bitpack.pack ~width:meta_bits
         (Array.to_list (Array.map (fun c -> (c, cfg.counter_bits)) counters)))
      ~dst:meta
  in
  let update (ev : Component.event) =
    List.iteri
      (fun slot c ->
        let (r : Types.resolved) = ev.slots.(slot) in
        if Types.cond_branch r then
          Slab.set state (index ev.ctx ~slot)
            (Counter.update ~bits:cfg.counter_bits c ~taken:r.r_taken))
      (Bitpack.unpack ev.meta (meta_layout cfg))
  in
  Component.make ~name:cfg.name ~family:Component.Counter_table ~latency:cfg.latency
    ~meta_bits
    ~storage:(Storage.make ~sram_bits:(entries * cfg.counter_bits) ())
    ~state ~predict ~update ()
