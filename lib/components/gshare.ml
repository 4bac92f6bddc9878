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
  fetch_width : int;
}

let default ~name =
  { name; latency = 2; index_bits = 12; counter_bits = 2; history_length = 12; fetch_width = 4 }

let make cfg =
  let entries = 1 lsl cfg.index_bits in
  let cb = cfg.counter_bits in
  (* slab layout: one counter per cell, entry i at cell i *)
  let state = Slab.create entries in
  Slab.fill state (Counter.weakly_not_taken ~bits:cb);
  let taken_at = Counter.weakly_taken ~bits:cb in
  let index (ctx : Context.t) ~slot =
    Hashing.pc_index ~pc:(Context.slot_pc ctx slot) ~bits:cfg.index_bits
    lxor Context.folded_ghist ctx ~len:cfg.history_length ~bits:cfg.index_bits
  in
  (* Metadata: per slot, the counter read at predict time. *)
  let meta_bits = cfg.fetch_width * cb in
  let packer = Bitpack.Packer.create ~owner:cfg.name ~width:meta_bits in
  let predict ctx ~pred_in ~out ~meta =
    let base = match pred_in with [ p ] -> p | _ -> invalid_arg (cfg.name ^ ": one predict_in") in
    let live = Context.live_bound ctx cfg.fetch_width in
    for slot = 0 to live - 1 do
      let c = Slab.unsafe_get state (index ctx ~slot) in
      Bitpack.Packer.add packer c ~bits:cb;
      if not (Types.unconditional_in base slot) then
        out.(slot) <- Types.direction_hint ~taken:(c >= taken_at)
    done;
    (* dead slots: keep the declared meta layout *)
    Bitpack.Packer.add_zeros packer ~bits:((cfg.fetch_width - live) * cb);
    Bitpack.Packer.finish_into packer meta
  in
  let update (ev : Component.event) =
    for slot = 0 to cfg.fetch_width - 1 do
      let (r : Types.resolved) = ev.slots.(slot) in
      if Types.cond_branch r then begin
        let c = Bits.extract_int ev.meta ~lo:(slot * cb) ~len:cb in
        Slab.unsafe_set state (index ev.ctx ~slot) (Counter.update ~bits:cb c ~taken:r.r_taken)
      end
    done
  in
  Component.make ~name:cfg.name ~family:Component.Counter_table ~latency:cfg.latency
    ~meta_bits
    ~storage:(Storage.make ~sram_bits:(entries * cb) ())
    ~state ~predict ~update ()
