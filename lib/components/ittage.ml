module Bitpack = Cobra_util.Bitpack
module Bits = Cobra_util.Bits
module Counter = Cobra_util.Counter
module Hashing = Cobra_util.Hashing
open Cobra

type table_spec = Tagged.spec = { history_length : int; index_bits : int; tag_bits : int }

type config = {
  name : string;
  latency : int;
  tables : table_spec list;
  confidence_bits : int;
  use_path_history : bool;
  fetch_width : int;
}

let default ~name =
  let spec h = { history_length = h; index_bits = 8; tag_bits = 9 } in
  {
    name;
    latency = 3;
    tables = List.map spec [ 2; 6; 12; 24 ];
    confidence_bits = 2;
    use_path_history = false;
    fetch_width = 4;
  }

let target_bits = 48

let make cfg =
  let ntables = List.length cfg.tables in
  if ntables < 1 || ntables > 8 then invalid_arg (cfg.name ^ ": 1..8 tables supported");
  (* Payload cells [0]=target, [1]=conf; no header. *)
  let bank =
    Tagged.make ~name:cfg.name ~header:0 ~payload:2
      ~index_salt:(fun t -> Hashing.mix2 t 29)
      ~tag_salt:(fun t -> t * 131)
      ~history:(if cfg.use_path_history then Tagged.Phist else Tagged.Ghist)
      (Array.of_list cfg.tables)
  in
  let e_target e = Tagged.get bank e 0 in
  let e_conf e = Tagged.get bank e 1 in
  (* Metadata, one word per slot: hit flag (bit 0), then the provider
     table (3 bits). *)
  let slot_bits = 4 in
  let meta_bits = cfg.fetch_width * slot_bits in
  let packer = Bitpack.Packer.create ~owner:cfg.name ~width:meta_bits in
  let predict (ctx : Context.t) ~pred_in:_ ~out ~meta =
    Tagged.prepare bank ctx;
    let live = Context.live_bound ctx cfg.fetch_width in
    for slot = 0 to live - 1 do
      let pcv = Tagged.pc_fold bank ctx ~slot in
      let t = Tagged.longest_hit bank ctx ~slot ~pcv ~below:ntables in
      if t < 0 then Bitpack.Packer.add packer 0 ~bits:slot_bits
      else begin
        Bitpack.Packer.add packer (1 lor (Bitpack.field t ~bits:3 lsl 1)) ~bits:slot_bits;
        Row.set_full out slot ~kind:Types.Ind ~taken:true
          ~target:(e_target (Tagged.entry bank ctx ~slot ~pcv ~table:t))
      end
    done;
    (* dead slots: keep the declared meta layout *)
    Bitpack.Packer.add_zeros packer ~bits:((cfg.fetch_width - live) * slot_bits);
    Bitpack.Packer.finish_into packer meta
  in
  let update (ev : Component.event) =
    for slot = 0 to cfg.fetch_width - 1 do
      let (r : Types.resolved) = ev.slots.(slot) in
      if r.r_is_branch && r.r_kind = Types.Ind && r.r_taken then begin
        let w = Bits.extract_int ev.meta ~lo:(slot * slot_bits) ~len:slot_bits in
        let hit = w land 1 = 1 and provider = w lsr 1 in
        Tagged.prepare bank ev.ctx;
        let pcv = Tagged.pc_fold bank ev.ctx ~slot in
        let e = if hit then Tagged.lookup bank ev.ctx ~slot ~pcv ~table:provider else -1 in
        let correct = e >= 0 && e_target e = r.r_target in
        if e >= 0 then
          if correct then
            Tagged.set bank e 1 (Counter.increment ~bits:cfg.confidence_bits (e_conf e))
          else if e_conf e > 0 then Tagged.set bank e 1 (e_conf e - 1)
          else Tagged.set bank e 0 r.r_target;
        (* allocate in a longer-history table when wrong or missing: the
           first entry whose confidence has run out, decaying the ones
           passed over *)
        if not correct then begin
          let t = ref (if hit then provider + 1 else 0) in
          while !t < ntables do
            let e = Tagged.entry bank ev.ctx ~slot ~pcv ~table:!t in
            if (not (Tagged.valid bank e)) || e_conf e = 0 then begin
              Tagged.claim bank ev.ctx ~slot ~table:!t e;
              Tagged.set bank e 0 r.r_target;
              Tagged.set bank e 1 0;
              t := ntables
            end
            else begin
              Tagged.set bank e 1 (e_conf e - 1);
              incr t
            end
          done
        end
      end
    done
  in
  let storage_bits =
    Tagged.sram_bits cfg.tables ~payload_bits:(target_bits + cfg.confidence_bits)
  in
  Component.make ~name:cfg.name ~family:Component.Tagged_table ~latency:cfg.latency ~meta_bits
    ~fetch_width:cfg.fetch_width
    ~storage:(Storage.make ~sram_bits:storage_bits ~logic_gates:(cfg.fetch_width * ntables * 100) ())
    ~state:(Tagged.state bank) ~predict ~update ()
