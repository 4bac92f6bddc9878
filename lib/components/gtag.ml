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
  let index_bits = Bitops.log2_exact cfg.entries in
  (* slab layout: entry i at stride 3 — [3i]=valid, [3i+1]=tag, [3i+2]=ctr *)
  let state = Slab.create (cfg.entries * 3) in
  let e_valid i = Slab.unsafe_get state (3 * i) = 1 in
  let e_tag i = Slab.unsafe_get state ((3 * i) + 1) in
  let e_ctr i = Slab.unsafe_get state ((3 * i) + 2) in
  let cb = cfg.counter_bits in
  let taken_at = Counter.weakly_taken ~bits:cb in
  let index_mask = (1 lsl index_bits) - 1 in
  (* The history folds are slot-independent: one pair per event, passed to
     the per-slot index and tag. [index] is [Hashing.combine] of the PC and
     history parts, unrolled so that no list is built per slot. *)
  let index (ctx : Context.t) ~slot ~h_idx =
    Hashing.pc_index ~pc:(Context.slot_pc ctx slot) ~bits:index_bits land index_mask
    lxor (h_idx land index_mask)
  in
  let tag (ctx : Context.t) ~slot ~h_tag =
    Hashing.fold_int
      (Hashing.mix2 (Hashing.pc_bits (Context.slot_pc ctx slot)) h_tag)
      ~width:62 ~bits:cfg.tag_bits
  in
  let h_idx_of (ctx : Context.t) =
    Hashing.folded_history ctx.ghist ~len:cfg.history_length ~bits:index_bits
  in
  let h_tag_of (ctx : Context.t) =
    Hashing.folded_history ctx.ghist ~len:cfg.history_length ~bits:cfg.tag_bits
  in
  (* Metadata, one word per slot: hit flag (bit 0), then the counter read
     at predict time. *)
  let slot_bits = 1 + cb in
  let meta_bits = cfg.fetch_width * slot_bits in
  let packer = Bitpack.Packer.create ~owner:cfg.name ~width:meta_bits in
  let predict (ctx : Context.t) ~pred_in ~out ~meta =
    let base = match pred_in with [ p ] -> p | _ -> invalid_arg (cfg.name ^ ": one predict_in") in
    let live = Context.live_bound ctx cfg.fetch_width in
    let h_idx = h_idx_of ctx and h_tag = h_tag_of ctx in
    for slot = 0 to live - 1 do
      let i = index ctx ~slot ~h_idx in
      if (not (Types.unconditional_in base slot)) && e_valid i && e_tag i = tag ctx ~slot ~h_tag
      then begin
        let c = e_ctr i in
        Bitpack.Packer.add packer (1 lor (Bitpack.field c ~bits:cb lsl 1)) ~bits:slot_bits;
        out.(slot) <- Types.direction_hint ~taken:(c >= taken_at)
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
        let i = index ev.ctx ~slot ~h_idx:(h_idx_of ev.ctx) in
        if w land 1 = 1 then
          Slab.unsafe_set state ((3 * i) + 2) (Counter.update ~bits:cb (w lsr 1) ~taken:r.r_taken)
        else begin
          (* Allocate on miss, seeding the counter weakly in the observed
             direction. *)
          Slab.unsafe_set state (3 * i) 1;
          Slab.unsafe_set state ((3 * i) + 1) (tag ev.ctx ~slot ~h_tag:(h_tag_of ev.ctx));
          Slab.unsafe_set state ((3 * i) + 2)
            (if r.r_taken then Counter.weakly_taken ~bits:cb else Counter.weakly_not_taken ~bits:cb)
        end
      end
    done
  in
  let entry_bits = 1 + cfg.tag_bits + cfg.counter_bits in
  let storage =
    Storage.make ~sram_bits:(cfg.entries * entry_bits) ~logic_gates:(cfg.fetch_width * 80) ()
  in
  Component.make ~name:cfg.name ~family:Component.Tagged_table ~latency:cfg.latency ~meta_bits
    ~storage ~state ~predict ~update ()
