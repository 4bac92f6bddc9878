module Counter = Cobra_util.Counter
module Bitpack = Cobra_util.Bitpack
module Bits = Cobra_util.Bits
module Bitops = Cobra_util.Bitops
module Slab = Cobra_util.Slab
open Cobra

type config = {
  name : string;
  latency : int;
  entries : int;
  counter_bits : int;
  indexing : Indexing.t;
  fetch_width : int;
}

let default ~name ~indexing =
  { name; latency = 2; entries = 2048; counter_bits = 2; indexing; fetch_width = 4 }

let make cfg =
  if not (Bitops.is_power_of_two cfg.entries) then
    invalid_arg (cfg.name ^ ": entries must be a power of two");
  let slot_index =
    try Indexing.index cfg.indexing ~bits:(Bitops.log2_exact cfg.entries)
    with Invalid_argument m -> invalid_arg (cfg.name ^ ": " ^ m)
  in
  let cb = cfg.counter_bits in
  (* slab layout: one counter per cell, entry i at cell i *)
  let state = Slab.create cfg.entries in
  Slab.fill state (Counter.weakly_not_taken ~bits:cb);
  let taken_at = Counter.weakly_taken ~bits:cb in
  (* Metadata layout: per slot, the counter value read at predict time. *)
  let meta_bits = cfg.fetch_width * cb in
  let packer = Bitpack.Packer.create ~owner:cfg.name ~width:meta_bits in
  let predict ctx ~pred_in ~out ~meta =
    if Array.length pred_in <> 1 then invalid_arg (cfg.name ^ ": one predict_in");
    let base = pred_in.(0) in
    let live = Context.live_bound ctx cfg.fetch_width in
    for slot = 0 to live - 1 do
      let c = Slab.unsafe_get state (slot_index ctx ~slot) in
      Bitpack.Packer.add packer c ~bits:cb;
      (* never override a known always-taken direction (jump/call/ret) *)
      if not (Row.unconditional base slot) then Row.set_taken out slot (c >= taken_at)
    done;
    (* dead slots: keep the declared meta layout *)
    Bitpack.Packer.add_zeros packer ~bits:((cfg.fetch_width - live) * cb);
    Bitpack.Packer.finish_into packer meta
  in
  let update (ev : Component.event) =
    for slot = 0 to cfg.fetch_width - 1 do
      let (r : Types.resolved) = ev.slots.(slot) in
      if Types.cond_branch r then begin
        (* Write back the updated predict-time counter: no second read. *)
        let c = Bits.extract_int ev.meta ~lo:(slot * cb) ~len:cb in
        Slab.unsafe_set state (slot_index ev.ctx ~slot) (Counter.update ~bits:cb c ~taken:r.r_taken)
      end
    done
  in
  let storage =
    Storage.make ~sram_bits:(cfg.entries * cb)
      ~logic_gates:(cfg.fetch_width * 40) ()
  in
  Component.make ~name:cfg.name ~family:Component.Counter_table ~latency:cfg.latency
    ~fetch_width:cfg.fetch_width ~meta_bits ~storage ~state ~predict ~update ()
