module Bitpack = Cobra_util.Bitpack
module Bits = Cobra_util.Bits
module Bitops = Cobra_util.Bitops
module Hashing = Cobra_util.Hashing
module Slab = Cobra_util.Slab
open Cobra

type config = {
  name : string;
  latency : int;
  entries : int;
  tag_bits : int;
  count_bits : int;
  conf_bits : int;
  conf_threshold : int;
  fetch_width : int;
}

let default ~name =
  {
    name;
    latency = 3;
    entries = 256;
    tag_bits = 10;
    count_bits = 10;
    conf_bits = 3;
    conf_threshold = 4;
    fetch_width = 4;
  }

let make cfg =
  if not (Bitops.is_power_of_two cfg.entries) then
    invalid_arg (cfg.name ^ ": entries must be a power of two");
  let index_bits = Bitops.log2_exact cfg.entries in
  (* slab layout: entry i at stride 6 — [6i]=valid, [+1]=tag,
     [+2]=p_count (learned trip count; 0 = unknown), [+3]=c_count
     (speculative iterations since last exit), [+4]=conf, [+5]=dir (the
     repeated body direction, 1 = taken) *)
  let state = Slab.create (cfg.entries * 6) in
  let index pc = Hashing.pc_index ~pc ~bits:index_bits in
  let tag_of pc = Hashing.fold_int (Hashing.mix2 (Hashing.pc_bits pc) 3) ~width:62 ~bits:cfg.tag_bits in
  let e_valid off = Slab.unsafe_get state off = 1 in
  let e_tag off = Slab.unsafe_get state (off + 1) in
  let e_p_count off = Slab.unsafe_get state (off + 2) in
  let e_c_count off = Slab.unsafe_get state (off + 3) in
  let e_conf off = Slab.unsafe_get state (off + 4) in
  let e_dir off = Slab.unsafe_get state (off + 5) = 1 in
  let set_p_count off v = Slab.unsafe_set state (off + 2) v in
  let set_c_count off v = Slab.unsafe_set state (off + 3) v in
  let set_conf off v = Slab.unsafe_set state (off + 4) v in
  let set_dir off b = Slab.unsafe_set state (off + 5) (if b then 1 else 0) in
  (* The matching entry's slab offset, or -1. *)
  let lookup pc =
    let off = 6 * index pc in
    if e_valid off && e_tag off = tag_of pc then off else -1
  in
  let count_max = (1 lsl cfg.count_bits) - 1 in
  let conf_max = (1 lsl cfg.conf_bits) - 1 in
  (* Metadata layout, one word per slot: hit (bit 0), predict-time c_count,
     offered a prediction, predicted direction. *)
  let pv_lo = 1 + cfg.count_bits in
  let slot_bits = pv_lo + 2 in
  if slot_bits > 62 then invalid_arg (cfg.name ^ ": per-slot metadata wider than 62 bits");
  let meta_bits = cfg.fetch_width * slot_bits in
  let packer = Bitpack.Packer.create ~owner:cfg.name ~width:meta_bits in
  let predict (ctx : Context.t) ~pred_in:_ ~out ~meta =
    let live = Context.live_bound ctx cfg.fetch_width in
    for slot = 0 to live - 1 do
      let off = lookup (Context.slot_pc ctx slot) in
      if off < 0 then Bitpack.Packer.add packer 0 ~bits:slot_bits
      else begin
        let c = Bitpack.field (e_c_count off) ~bits:cfg.count_bits in
        let offered =
          if e_conf off >= cfg.conf_threshold && e_p_count off > 0 then begin
            let taken = if e_c_count off >= e_p_count off then not (e_dir off) else e_dir off in
            Row.set_taken out slot taken;
            if taken then 3 else 1
          end
          else 0
        in
        Bitpack.Packer.add packer (1 lor (c lsl 1) lor (offered lsl pv_lo)) ~bits:slot_bits
      end
    done;
    Bitpack.Packer.add_zeros packer ~bits:((cfg.fetch_width - live) * slot_bits);
    Bitpack.Packer.finish_into packer meta
  in
  (* A slot's predict-time word; pv/pd are predict-time outputs no handler
     reads. Dead slots hold zero words, so handlers that walk every slot
     stop at the packet's live bound. *)
  let word (ev : Component.event) slot = Bits.extract_int ev.meta ~lo:(slot * slot_bits) ~len:slot_bits in
  let w_hit w = w land 1 = 1 in
  let w_count w = (w lsr 1) land count_max in
  let entry_for (ev : Component.event) slot = lookup (Context.slot_pc ev.ctx slot) in
  (* Speculative per-slot iteration counting when the packet proceeds. *)
  let fire (ev : Component.event) =
    for slot = 0 to cfg.fetch_width - 1 do
      let (r : Types.resolved) = ev.slots.(slot) in
      if Types.cond_branch r && w_hit (word ev slot) then begin
        let off = entry_for ev slot in
        if off >= 0 then
          if r.r_taken = e_dir off then begin
            let c = e_c_count off + 1 in
            set_c_count off (if c < count_max then c else count_max)
          end
          else set_c_count off 0
      end
    done
  in
  let restore_slot ev slot =
    let w = word ev slot in
    if w_hit w then begin
      let off = entry_for ev slot in
      if off >= 0 then set_c_count off (w_count w)
    end
  in
  let repair (ev : Component.event) =
    for slot = 0 to Context.live_bound ev.ctx cfg.fetch_width - 1 do
      restore_slot ev slot
    done
  in
  let mispredict (ev : Component.event) =
    match ev.culprit with
    | None -> ()
    | Some culprit ->
      (* Rewind speculative counts from the culprit onward, then apply the
         culprit's actual direction. *)
      for slot = Context.live_bound ev.ctx cfg.fetch_width - 1 downto culprit do
        restore_slot ev slot
      done;
      let (r : Types.resolved) = ev.slots.(culprit) in
      if Types.cond_branch r then begin
        let w = word ev culprit in
        let off = if w_hit w then entry_for ev culprit else -1 in
        if off >= 0 then
          if r.r_taken = e_dir off then begin
            let c = w_count w + 1 in
            set_c_count off (if c < count_max then c else count_max)
          end
          else set_c_count off 0
        else begin
          (* An untracked mispredicting conditional branch: start tracking,
             assuming the misprediction was a loop exit. *)
          let pc = Context.slot_pc ev.ctx culprit in
          let off = 6 * index pc in
          Slab.unsafe_set state off 1;
          Slab.unsafe_set state (off + 1) (tag_of pc);
          set_p_count off 0;
          set_c_count off 0;
          set_conf off 0;
          set_dir off (not r.r_taken)
        end
      end
  in
  let update (ev : Component.event) =
    for slot = 0 to cfg.fetch_width - 1 do
      let (r : Types.resolved) = ev.slots.(slot) in
      if Types.cond_branch r then begin
        let w = word ev slot in
        let off = if w_hit w then entry_for ev slot else -1 in
        if off >= 0 then begin
          let c = w_count w in
          if r.r_taken <> e_dir off then begin
            (* Committed loop exit after [c] body iterations. *)
            if c = 0 then begin
              (* Two consecutive exits: the learned body direction is
                 the branch's minority direction — flip it. *)
              set_dir off (not (e_dir off));
              set_p_count off 0;
              set_conf off 0
            end
            else if c < count_max then begin
              if e_p_count off = c then begin
                let k = e_conf off + 1 in
                set_conf off (if k < conf_max then k else conf_max)
              end
              else begin
                set_p_count off c;
                set_conf off (if e_conf off >= cfg.conf_threshold then 0 else 1)
              end
            end
          end
          else if e_p_count off > 0 && c >= e_p_count off then begin
            (* Ran past the learned trip count without exiting. *)
            let k = e_conf off - 1 in
            set_conf off (if k > 0 then k else 0)
          end
        end
      end
    done
  in
  let entry_bits = 1 + cfg.tag_bits + (2 * cfg.count_bits) + cfg.conf_bits + 1 in
  let storage =
    Storage.make ~sram_bits:(cfg.entries * entry_bits) ~logic_gates:(cfg.fetch_width * 70) ()
  in
  Component.make ~name:cfg.name ~family:Component.Loop ~latency:cfg.latency ~meta_bits ~storage
    ~fetch_width:cfg.fetch_width ~state ~predict ~fire ~mispredict ~repair ~update ()
