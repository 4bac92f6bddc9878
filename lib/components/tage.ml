module Bitpack = Cobra_util.Bitpack
module Bits = Cobra_util.Bits
module Counter = Cobra_util.Counter
module Hashing = Cobra_util.Hashing
module Rng = Cobra_util.Rng
module Slab = Cobra_util.Slab
open Cobra

type table_spec = Tagged.spec = { history_length : int; index_bits : int; tag_bits : int }

type config = {
  name : string;
  latency : int;
  tables : table_spec list;
  counter_bits : int;
  u_bits : int;
  u_reset_period : int;
  seed : int;
  fetch_width : int;
}

let default ~name =
  let spec h = { history_length = h; index_bits = 9; tag_bits = 9 } in
  {
    name;
    latency = 3;
    tables = List.map spec [ 4; 6; 10; 16; 26; 42; 64 ];
    counter_bits = 3;
    u_bits = 2;
    u_reset_period = 1 lsl 18;
    seed = 0xc0b7a;
    fetch_width = 4;
  }

let storage_bits cfg = Tagged.sram_bits cfg.tables ~payload_bits:(cfg.counter_bits + cfg.u_bits)

let make cfg =
  let ntables = List.length cfg.tables in
  if ntables < 1 || ntables > 15 then invalid_arg (cfg.name ^ ": 1..15 tables supported");
  if cfg.counter_bits < 2 then invalid_arg (cfg.name ^ ": counter_bits < 2");
  (* Payload cells [0]=ctr, [1]=u. Header cells: [0]=update_count, [1]=rng
     state low 31 bits, [2]=rng state high 33 bits. *)
  let bank =
    Tagged.make ~name:cfg.name ~header:3 ~payload:2
      ~index_salt:(fun t -> Hashing.mix2 t 17)
      ~tag_salt:(fun t -> t * 7919)
      ~history:Tagged.Ghist (Array.of_list cfg.tables)
  in
  let state = Tagged.state bank in
  (* The generator's state lives in the header cells, split at bit 31 and
     stepped in place: [Rng.chance] on a state loaded from them, without
     an [Rng.t] whose every draw would box its state. *)
  let store_rng s =
    Slab.set state 1 (Int64.to_int (Int64.logand s 0x7FFFFFFFL));
    Slab.set state 2 (Int64.to_int (Int64.shift_right_logical s 31))
  in
  store_rng (Rng.state (Rng.create ~seed:cfg.seed));
  let rng_chance p =
    let s =
      Rng.advance
        (Int64.logor
           (Int64.of_int (Slab.get state 1))
           (Int64.shift_left (Int64.of_int (Slab.get state 2)) 31))
    in
    store_rng s;
    Rng.unit_float (Rng.mix s) < p
  in
  let e_ctr e = Tagged.get bank e 0 in
  let e_u e = Tagged.get bank e 1 in
  let cb = cfg.counter_bits and ub = cfg.u_bits in
  let taken_at = Counter.weakly_taken ~bits:cb in
  let u_max = Counter.max_value ~bits:ub in
  (* Metadata layout, one word per slot, low bits first: hit(1)
     provider(4) provider_ctr(cb) alt_valid(1) alt_dir(1) provider_u(ub)
     base_valid(1) base_dir(1). *)
  let provider_lo = 1 in
  let ctr_lo = provider_lo + 4 in
  let alt_lo = ctr_lo + cb in
  let u_lo = alt_lo + 2 in
  let base_lo = u_lo + ub in
  let slot_bits = base_lo + 2 in
  if slot_bits > 62 then invalid_arg (cfg.name ^ ": per-slot metadata wider than 62 bits");
  let ctr_mask = (1 lsl cb) - 1 and u_mask = (1 lsl ub) - 1 in
  let meta_bits = cfg.fetch_width * slot_bits in
  let packer = Bitpack.Packer.create ~owner:cfg.name ~width:meta_bits in
  let predict (ctx : Context.t) ~pred_in ~out ~meta =
    if Array.length pred_in <> 1 then invalid_arg (cfg.name ^ ": expected exactly one predict_in");
    let base = pred_in.(0) in
    Tagged.prepare bank ctx;
    let live = Context.live_bound ctx cfg.fetch_width in
    for slot = 0 to live - 1 do
      let pcv = Tagged.pc_fold bank ctx ~slot in
      let base_word =
        if not (Row.taken_known base slot) then 0 else if Row.taken base slot then 3 else 1
      in
      let provider = Tagged.longest_hit bank ctx ~slot ~pcv ~below:ntables in
      if provider < 0 then Bitpack.Packer.add packer (base_word lsl base_lo) ~bits:slot_bits
      else begin
        let e = Tagged.entry bank ctx ~slot ~pcv ~table:provider in
        let ctr = e_ctr e in
        let alt = Tagged.longest_hit bank ctx ~slot ~pcv ~below:provider in
        let alt_word =
          if alt < 0 then 0
          else if e_ctr (Tagged.entry bank ctx ~slot ~pcv ~table:alt) >= taken_at then 3
          else 1
        in
        Bitpack.Packer.add packer
          (1
          lor (Bitpack.field provider ~bits:4 lsl provider_lo)
          lor (Bitpack.field ctr ~bits:cb lsl ctr_lo)
          lor (alt_word lsl alt_lo)
          lor (Bitpack.field (e_u e) ~bits:ub lsl u_lo)
          lor (base_word lsl base_lo))
          ~bits:slot_bits;
        if not (Row.unconditional base slot) then Row.set_taken out slot (ctr >= taken_at)
      end
    done;
    (* dead slots: keep the declared meta layout *)
    Bitpack.Packer.add_zeros packer ~bits:((cfg.fetch_width - live) * slot_bits);
    Bitpack.Packer.finish_into packer meta
  in
  let graceful_u_decay () = Tagged.iter_entries bank (fun e -> Tagged.set bank e 1 (e_u e lsr 1)) in
  let allocate pcv (ctx : Context.t) ~slot ~above ~taken =
    (* Find a non-useful entry in a longer-history table; throttle with the
       PRNG so allocations spread across tables (Seznec 2011). If every
       candidate is useful, age them all instead. Only the two shortest
       candidates matter. *)
    let first = ref (-1) and next = ref (-1) in
    for t = above to ntables - 1 do
      let e = Tagged.entry bank ctx ~slot ~pcv ~table:t in
      if (not (Tagged.valid bank e)) || e_u e = 0 then
        if !first < 0 then first := t else if !next < 0 then next := t
    done;
    if !first < 0 then
      for t = above to ntables - 1 do
        let e = Tagged.entry bank ctx ~slot ~pcv ~table:t in
        let u = e_u e - 1 in
        Tagged.set bank e 1 (if u > 0 then u else 0)
      done
    else begin
      (* Prefer the shortest candidate but sometimes skip ahead. *)
      let chosen = if !next >= 0 && rng_chance 0.33 then !next else !first in
      let e = Tagged.entry bank ctx ~slot ~pcv ~table:chosen in
      Tagged.claim bank ctx ~slot ~table:chosen e;
      Tagged.set bank e 0
        (if taken then Counter.weakly_taken ~bits:cb else Counter.weakly_not_taken ~bits:cb);
      Tagged.set bank e 1 0
    end
  in
  let update (ev : Component.event) =
    for slot = 0 to cfg.fetch_width - 1 do
      let (r : Types.resolved) = ev.slots.(slot) in
      if Types.cond_branch r then begin
        let w = Bits.extract_int ev.meta ~lo:(slot * slot_bits) ~len:slot_bits in
        let hit = w land 1 = 1 in
        let provider = (w lsr provider_lo) land 15 in
        let pctr = (w lsr ctr_lo) land ctr_mask in
        let alt_valid = (w lsr alt_lo) land 1 = 1 in
        let alt_dir = (w lsr (alt_lo + 1)) land 1 = 1 in
        let pu = (w lsr u_lo) land u_mask in
        let base_valid = (w lsr base_lo) land 1 = 1 in
        let base_dir = (w lsr (base_lo + 1)) land 1 = 1 in
        Slab.set state 0 (Slab.get state 0 + 1);
        if Slab.get state 0 mod cfg.u_reset_period = 0 then graceful_u_decay ();
        (* The folds are only needed (and only filled) when the packet
           holds a conditional branch; after predict they are cached. *)
        Tagged.prepare bank ev.ctx;
        let taken = r.r_taken in
        let pcv = Tagged.pc_fold bank ev.ctx ~slot in
        (* the effective prediction: the provider's, else the base's *)
        let wrong =
          if hit then begin
            let pdir = pctr >= taken_at in
            let e = Tagged.lookup bank ev.ctx ~slot ~pcv ~table:provider in
            if e >= 0 then begin
              Tagged.set bank e 0 (Counter.update ~bits:cb pctr ~taken);
              (* Usefulness trains when provider and altpred disagreed. *)
              let alt_known = alt_valid || base_valid in
              let alt = if alt_valid then alt_dir else base_dir in
              if alt_known && alt <> pdir then
                Tagged.set bank e 1
                  (if pdir = taken then (if pu + 1 < u_max then pu + 1 else u_max)
                   else if pu - 1 > 0 then pu - 1
                   else 0)
            end;
            pdir <> taken
          end
          else if base_valid then base_dir <> taken
          else true
        in
        (* Allocate on a wrong effective prediction, in tables above the
           provider (or anywhere when nothing hit). *)
        let can_extend = (not hit) || provider < ntables - 1 in
        if wrong && can_extend then
          allocate pcv ev.ctx ~slot ~above:(if hit then provider + 1 else 0) ~taken
      end
    done
  in
  let storage =
    Storage.make ~sram_bits:(storage_bits cfg)
      ~logic_gates:(cfg.fetch_width * ntables * 120)
      ()
  in
  Component.make ~name:cfg.name ~family:Component.Tage ~latency:cfg.latency ~meta_bits ~storage
    ~fetch_width:cfg.fetch_width ~state ~predict ~update ()
