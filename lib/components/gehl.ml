module Bitpack = Cobra_util.Bitpack
module Bits = Cobra_util.Bits
module Counter = Cobra_util.Counter
module Hashing = Cobra_util.Hashing
module Slab = Cobra_util.Slab
open Cobra

type config = {
  name : string;
  latency : int;
  table_bits : int;
  counter_bits : int;
  history_lengths : int list;
  threshold : int;
  fetch_width : int;
}

let default ~name =
  {
    name;
    latency = 3;
    table_bits = 10;
    counter_bits = 4;
    history_lengths = [ 0; 2; 4; 8; 16; 32 ];
    threshold = 6;
    fetch_width = 4;
  }

let storage_bits cfg =
  List.length cfg.history_lengths * (1 lsl cfg.table_bits) * cfg.counter_bits

let make cfg =
  let ntables = List.length cfg.history_lengths in
  if ntables < 1 then invalid_arg (cfg.name ^ ": no tables");
  let lengths = Array.of_list cfg.history_lengths in
  (* slab layout: table t's entry i (signed counter) at cell t*2^table_bits + i *)
  let bank_size = 1 lsl cfg.table_bits in
  let state = Slab.create (ntables * bank_size) in
  let bias = 1 lsl cfg.counter_bits in
  let index (ctx : Context.t) ~slot ~table =
    let pc_part = Hashing.pc_index ~pc:(Context.slot_pc ctx slot) ~bits:cfg.table_bits in
    if lengths.(table) = 0 then pc_part
    else
      pc_part
      lxor Hashing.folded_history ctx.ghist ~len:lengths.(table) ~bits:cfg.table_bits
      lxor Hashing.fold_int (Hashing.mix2 table 41) ~width:62 ~bits:cfg.table_bits
  in
  (* Metadata: per slot, each table's counter biased into unsigned range, in
     ascending table order (bank 0 first). *)
  let field_bits = cfg.counter_bits + 1 in
  let meta_bits = cfg.fetch_width * ntables * field_bits in
  let packer = Bitpack.Packer.create ~owner:cfg.name ~width:meta_bits in
  let predict (ctx : Context.t) ~pred_in ~out ~meta =
    if Array.length pred_in <> 1 then invalid_arg (cfg.name ^ ": one predict_in");
    let base = pred_in.(0) in
    for slot = 0 to cfg.fetch_width - 1 do
      let sum = ref 0 in
      for t = 0 to ntables - 1 do
        let c = Slab.get state ((t * bank_size) + index ctx ~slot ~table:t) in
        sum := !sum + c;
        Bitpack.Packer.add packer (c + bias) ~bits:field_bits
      done;
      if not (Row.unconditional base slot) then Row.set_taken out slot (!sum >= 0)
    done;
    Bitpack.Packer.finish_into packer meta
  in
  let counter (ev : Component.event) ~slot ~table =
    Bits.extract_int ev.meta ~lo:(((slot * ntables) + table) * field_bits) ~len:field_bits - bias
  in
  let update (ev : Component.event) =
    for slot = 0 to cfg.fetch_width - 1 do
      let (r : Types.resolved) = ev.slots.(slot) in
      if Types.cond_branch r then begin
        let sum = ref 0 in
        for t = 0 to ntables - 1 do
          sum := !sum + counter ev ~slot ~table:t
        done;
        if (!sum >= 0) <> r.r_taken || abs !sum <= cfg.threshold then
          for t = 0 to ntables - 1 do
            Slab.set state
              ((t * bank_size) + index ev.ctx ~slot ~table:t)
              (Counter.update_signed ~bits:cfg.counter_bits (counter ev ~slot ~table:t)
                 ~dir:(if r.r_taken then 1 else -1))
          done
      end
    done
  in
  Component.make ~name:cfg.name ~family:Component.Perceptron ~latency:cfg.latency ~meta_bits
    ~fetch_width:cfg.fetch_width ~storage:(Storage.make ~sram_bits:(storage_bits cfg) ())
    ~state ~predict ~update ()
