module Bitpack = Cobra_util.Bitpack
module Bits = Cobra_util.Bits
module Counter = Cobra_util.Counter
module Hashing = Cobra_util.Hashing
module Rng = Cobra_util.Rng
module Slab = Cobra_util.Slab
open Cobra

type table_spec = { history_length : int; index_bits : int; tag_bits : int }

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

let storage_bits cfg =
  List.fold_left
    (fun acc t -> acc + ((1 lsl t.index_bits) * (1 + t.tag_bits + cfg.counter_bits + cfg.u_bits)))
    0 cfg.tables

let make cfg =
  let ntables = List.length cfg.tables in
  if ntables < 1 || ntables > 15 then invalid_arg (cfg.name ^ ": 1..15 tables supported");
  if cfg.counter_bits < 2 then invalid_arg (cfg.name ^ ": counter_bits < 2");
  let specs = Array.of_list cfg.tables in
  (* slab layout: 3 header cells — [0]=update_count, [1]=rng state low 31
     bits, [2]=rng state high 33 bits — then per-table banks at formula
     base offsets, entry i of table t at stride 4 from its base:
     [+0]=valid, [+1]=tag, [+2]=ctr, [+3]=u *)
  let tbase = Array.make ntables 0 in
  let total =
    let off = ref 3 in
    Array.iteri
      (fun t s ->
        tbase.(t) <- !off;
        off := !off + ((1 lsl s.index_bits) * 4))
      specs;
    !off
  in
  let state = Slab.create total in
  let entry_off ~table i = tbase.(table) + (4 * i) in
  (* The Rng.t is scratch: its authoritative state lives in the header
     cells, loaded before and stored after every draw. *)
  let rng = Rng.create ~seed:cfg.seed in
  let store_rng () =
    let s = Rng.state rng in
    Slab.set state 1 (Int64.to_int (Int64.logand s 0x7FFFFFFFL));
    Slab.set state 2 (Int64.to_int (Int64.shift_right_logical s 31))
  in
  store_rng ();
  let rng_chance p =
    Rng.set_state rng
      (Int64.logor
         (Int64.of_int (Slab.get state 1))
         (Int64.shift_left (Int64.of_int (Slab.get state 2)) 31));
    let r = Rng.chance rng p in
    store_rng ();
    r
  in
  (* Per-table bank-decorrelation constants and, per query, the folded
     global-history hashes — slot-independent, so computed once per event
     rather than per (slot, table). *)
  let bank_const =
    Array.init ntables (fun t ->
        Hashing.fold_int (Hashing.mix2 t 17) ~width:62 ~bits:specs.(t).index_bits)
  in
  (* Scratch folds, refilled at the top of each predict/update: the folds
     run once per packet, the scratch turns the per-(slot, table) lookups
     into plain array reads. When every table shares an index (and tag)
     width — the common case — all lengths fold in one batched pass over
     the history instead of one [fold_xor_sub] walk per table. *)
  let fold_idx = Array.make ntables 0 in
  let fold_tag = Array.make ntables 0 in
  let uniform_fold_idx_bits =
    Array.for_all (fun s -> s.index_bits = specs.(0).index_bits) specs
  in
  let uniform_fold_tag_bits =
    Array.for_all (fun s -> s.tag_bits = specs.(0).tag_bits) specs
  in
  (* table order sorted by history length, as the batched fold requires *)
  let by_len =
    let idx = Array.init ntables Fun.id in
    Array.sort (fun a b -> compare specs.(a).history_length specs.(b).history_length) idx;
    idx
  in
  let sorted_lens = Array.map (fun i -> specs.(i).history_length) by_len in
  let fold_scratch = Array.make ntables 0 in
  let fill_batched (ctx : Context.t) ~bits out =
    Cobra_util.Bits.fold_xor_sub_multi ctx.Context.ghist ~lens:sorted_lens bits
      ~out:fold_scratch;
    for q = 0 to ntables - 1 do
      out.(by_len.(q)) <- fold_scratch.(q)
    done
  in
  (* The context travels with the packet, so its update events carry the
     record predict already folded for: keyed on (context, stamp), the
     refill is free when no other packet was predicted in between (always
     true for single-packet hosts like trace replay, which reuse one
     context and bump its stamp per branch). *)
  let last_ctx =
    ref (Context.make ~pc:0 ~fetch_width:1 ~ghist:(Bits.zero 0) ~lhists:[| Bits.zero 0 |] ())
  in
  let last_stamp = ref (-1) in
  let fill_folds_uncached (ctx : Context.t) =
    if uniform_fold_idx_bits then fill_batched ctx ~bits:specs.(0).index_bits fold_idx
    else
      for t = 0 to ntables - 1 do
        let s = specs.(t) in
        fold_idx.(t) <- Context.folded_ghist ctx ~len:s.history_length ~bits:s.index_bits
      done;
    if uniform_fold_tag_bits && uniform_fold_idx_bits
       && specs.(0).tag_bits = specs.(0).index_bits
    then Array.blit fold_idx 0 fold_tag 0 ntables
    else if uniform_fold_tag_bits then fill_batched ctx ~bits:specs.(0).tag_bits fold_tag
    else
      for t = 0 to ntables - 1 do
        let s = specs.(t) in
        fold_tag.(t) <- Context.folded_ghist ctx ~len:s.history_length ~bits:s.tag_bits
      done
  in
  let fill_folds (ctx : Context.t) =
    if not (!last_ctx == ctx && !last_stamp = ctx.stamp) then begin
      last_ctx := ctx;
      last_stamp := ctx.stamp;
      fill_folds_uncached ctx
    end
  in
  let uniform_index_bits =
    Array.for_all (fun s -> s.index_bits = specs.(0).index_bits) specs
  in
  (* PC fold per slot: an int, not a per-slot closure. When the tables share
     an index width (the common case) the fold is computed once per slot;
     otherwise [index] re-folds for the table's own width. *)
  let pc_fold (ctx : Context.t) ~slot =
    Hashing.pc_index ~pc:(Context.slot_pc ctx slot) ~bits:specs.(0).index_bits
  in
  let index ctx ~slot ~pcv ~table =
    let p =
      if uniform_index_bits then pcv
      else Hashing.pc_index ~pc:(Context.slot_pc ctx slot) ~bits:specs.(table).index_bits
    in
    p lxor fold_idx.(table) lxor bank_const.(table)
  in
  let tag_hash (ctx : Context.t) ~slot ~table =
    let s = specs.(table) in
    Hashing.fold_int
      (Hashing.mix2
         (Hashing.pc_bits (Context.slot_pc ctx slot))
         (fold_tag.(table) + (table * 7919)))
      ~width:62 ~bits:s.tag_bits
  in
  let e_valid off = Slab.unsafe_get state off = 1 in
  let e_tag off = Slab.unsafe_get state (off + 1) in
  let e_ctr off = Slab.unsafe_get state (off + 2) in
  let e_u off = Slab.unsafe_get state (off + 3) in
  (* The hit entry's slab offset, or -1. *)
  let lookup ctx ~slot ~pcv ~table =
    let off = entry_off ~table (index ctx ~slot ~pcv ~table) in
    if e_valid off && e_tag off = tag_hash ctx ~slot ~table then off else -1
  in
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
    let base =
      match pred_in with
      | [ p ] -> p
      | _ -> invalid_arg (cfg.name ^ ": expected exactly one predict_in")
    in
    fill_folds ctx;
    let live = Context.live_bound ctx cfg.fetch_width in
    for slot = 0 to live - 1 do
      let pcv = pc_fold ctx ~slot in
      (* Longest-history hit (the provider) and the next one below it. *)
      let provider = ref (-1) and p_off = ref (-1) and a_off = ref (-1) in
      let t = ref (ntables - 1) in
      while !a_off < 0 && !t >= 0 do
        let off = lookup ctx ~slot ~pcv ~table:!t in
        if off >= 0 then
          if !provider < 0 then begin
            provider := !t;
            p_off := off
          end
          else a_off := off;
        decr t
      done;
      let base_word =
        match base.(slot).Types.o_taken with
        | Some true -> 3
        | Some false -> 1
        | None -> 0
      in
      if !provider < 0 then Bitpack.Packer.add packer (base_word lsl base_lo) ~bits:slot_bits
      else begin
        let off = !p_off in
        let ctr = e_ctr off in
        let alt_word = if !a_off < 0 then 0 else if e_ctr !a_off >= taken_at then 3 else 1 in
        Bitpack.Packer.add packer
          (1
          lor (Bitpack.field !provider ~bits:4 lsl provider_lo)
          lor (Bitpack.field ctr ~bits:cb lsl ctr_lo)
          lor (alt_word lsl alt_lo)
          lor (Bitpack.field (e_u off) ~bits:ub lsl u_lo)
          lor (base_word lsl base_lo))
          ~bits:slot_bits;
        if not (Types.unconditional_in base slot) then
          out.(slot) <- Types.direction_hint ~taken:(ctr >= taken_at)
      end
    done;
    (* dead slots: keep the declared meta layout *)
    Bitpack.Packer.add_zeros packer ~bits:((cfg.fetch_width - live) * slot_bits);
    Bitpack.Packer.finish_into packer meta
  in
  let graceful_u_decay () =
    Array.iteri
      (fun t s ->
        for i = 0 to (1 lsl s.index_bits) - 1 do
          let off = entry_off ~table:t i in
          Slab.unsafe_set state (off + 3) (Slab.unsafe_get state (off + 3) lsr 1)
        done)
      specs
  in
  let allocate pcv (ctx : Context.t) ~slot ~above ~taken =
    (* Find a non-useful entry in a longer-history table; throttle with the
       PRNG so allocations spread across tables (Seznec 2011). If every
       candidate is useful, age them all instead. Only the two shortest
       candidates matter. *)
    let first = ref (-1) and next = ref (-1) in
    for t = above to ntables - 1 do
      let off = entry_off ~table:t (index ctx ~slot ~pcv ~table:t) in
      if (not (e_valid off)) || e_u off = 0 then
        if !first < 0 then first := t else if !next < 0 then next := t
    done;
    if !first < 0 then
      for t = above to ntables - 1 do
        let off = entry_off ~table:t (index ctx ~slot ~pcv ~table:t) in
        let u = e_u off - 1 in
        Slab.unsafe_set state (off + 3) (if u > 0 then u else 0)
      done
    else begin
      (* Prefer the shortest candidate but sometimes skip ahead. *)
      let chosen = if !next >= 0 && rng_chance 0.33 then !next else !first in
      let off = entry_off ~table:chosen (index ctx ~slot ~pcv ~table:chosen) in
      Slab.unsafe_set state off 1;
      Slab.unsafe_set state (off + 1) (tag_hash ctx ~slot ~table:chosen);
      Slab.unsafe_set state (off + 2)
        (if taken then Counter.weakly_taken ~bits:cb else Counter.weakly_not_taken ~bits:cb);
      Slab.unsafe_set state (off + 3) 0
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
        (* The scratch folds are only needed (and only filled) when the
           packet holds a conditional branch; the cache keyed on the
           packet's context makes the refill a no-op. *)
        fill_folds ev.ctx;
        let taken = r.r_taken in
        let pcv = pc_fold ev.ctx ~slot in
        (* the effective prediction: the provider's, else the base's *)
        let wrong =
          if hit then begin
            let pdir = pctr >= taken_at in
            let off = entry_off ~table:provider (index ev.ctx ~slot ~pcv ~table:provider) in
            if e_valid off && e_tag off = tag_hash ev.ctx ~slot ~table:provider then begin
              Slab.unsafe_set state (off + 2) (Counter.update ~bits:cb pctr ~taken);
              (* Usefulness trains when provider and altpred disagreed. *)
              let alt_known = alt_valid || base_valid in
              let alt = if alt_valid then alt_dir else base_dir in
              if alt_known && alt <> pdir then
                Slab.unsafe_set state (off + 3)
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
    ~state ~predict ~update ()
