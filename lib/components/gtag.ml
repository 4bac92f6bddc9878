module Bitpack = Cobra_util.Bitpack
module Bits = Cobra_util.Bits
module Bitops = Cobra_util.Bitops
module Counter = Cobra_util.Counter
open Cobra

type config = {
  name : string;
  latency : int;
  entries : int;
  tag_bits : int;
  counter_bits : int;
  history_length : int;
  fetch_width : int;
}

let default ~name =
  {
    name;
    latency = 3;
    entries = 2048;
    tag_bits = 7;
    counter_bits = 2;
    history_length = 16;
    fetch_width = 4;
  }

let make cfg =
  if not (Bitops.is_power_of_two cfg.entries) then
    invalid_arg (cfg.name ^ ": entries must be a power of two");
  let table =
    {
      Tagged.history_length = cfg.history_length;
      index_bits = Bitops.log2_exact cfg.entries;
      tag_bits = cfg.tag_bits;
    }
  in
  (* One table, no salts; payload cell [0]=ctr, no header. *)
  let bank =
    Tagged.make ~name:cfg.name ~header:0 ~payload:1 ~index_salt:(fun _ -> 0)
      ~tag_salt:(fun _ -> 0) ~history:Tagged.Ghist [| table |]
  in
  let cb = cfg.counter_bits in
  let taken_at = Counter.weakly_taken ~bits:cb in
  (* Metadata, one word per slot: hit flag (bit 0), then the counter read
     at predict time. *)
  let slot_bits = 1 + cb in
  let meta_bits = cfg.fetch_width * slot_bits in
  let packer = Bitpack.Packer.create ~owner:cfg.name ~width:meta_bits in
  let predict (ctx : Context.t) ~pred_in ~out ~meta =
    if Array.length pred_in <> 1 then invalid_arg (cfg.name ^ ": one predict_in");
    let base = pred_in.(0) in
    Tagged.prepare bank ctx;
    let live = Context.live_bound ctx cfg.fetch_width in
    for slot = 0 to live - 1 do
      let e =
        if Row.unconditional base slot then -1
        else Tagged.lookup bank ctx ~slot ~pcv:(Tagged.pc_fold bank ctx ~slot) ~table:0
      in
      if e >= 0 then begin
        let c = Tagged.get bank e 0 in
        Bitpack.Packer.add packer (1 lor (Bitpack.field c ~bits:cb lsl 1)) ~bits:slot_bits;
        Row.set_taken out slot (c >= taken_at)
      end
      else Bitpack.Packer.add packer 0 ~bits:slot_bits
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
        Tagged.prepare bank ev.ctx;
        let e = Tagged.entry bank ev.ctx ~slot ~pcv:(Tagged.pc_fold bank ev.ctx ~slot) ~table:0 in
        if w land 1 = 1 then
          Tagged.set bank e 0 (Counter.update ~bits:cb (w lsr 1) ~taken:r.r_taken)
        else begin
          (* Allocate on miss, seeding the counter weakly in the observed
             direction. *)
          Tagged.claim bank ev.ctx ~slot ~table:0 e;
          Tagged.set bank e 0
            (if r.r_taken then Counter.weakly_taken ~bits:cb else Counter.weakly_not_taken ~bits:cb)
        end
      end
    done
  in
  let storage =
    Storage.make
      ~sram_bits:(Tagged.sram_bits [ table ] ~payload_bits:cb)
      ~logic_gates:(cfg.fetch_width * 80) ()
  in
  Component.make ~name:cfg.name ~family:Component.Tagged_table ~latency:cfg.latency ~meta_bits
    ~fetch_width:cfg.fetch_width ~storage ~state:(Tagged.state bank) ~predict ~update ()
