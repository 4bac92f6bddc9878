module Bitpack = Cobra_util.Bitpack
module Bits = Cobra_util.Bits
module Bitops = Cobra_util.Bitops
module Hashing = Cobra_util.Hashing
module Slab = Cobra_util.Slab
open Cobra

type config = {
  name : string;
  latency : int;
  sets : int;
  ways : int;
  tag_bits : int;
  fetch_width : int;
}

let default ~name =
  { name; latency = 2; sets = 512; ways = 4; tag_bits = 14; fetch_width = 4 }

let entries cfg = cfg.sets * cfg.ways

let target_bits = 48

let make cfg =
  if not (Bitops.is_power_of_two cfg.sets) then
    invalid_arg (cfg.name ^ ": sets must be a power of two");
  if cfg.ways < 1 then invalid_arg (cfg.name ^ ": ways < 1");
  let set_bits = Bitops.log2_exact cfg.sets in
  (* slab layout: entry (set s, way w) at stride 4 from cell 4*(s*ways+w) —
     [+0]=valid, [+1]=tag, [+2]=target, [+3]=kind (branch_kind_to_int);
     then one round-robin replacement pointer per set at cell
     4*sets*ways + s *)
  let state = Slab.create ((cfg.sets * cfg.ways * 4) + cfg.sets) in
  let replace_base = cfg.sets * cfg.ways * 4 in
  let entry_off s w = 4 * ((s * cfg.ways) + w) in
  let e_valid off = Slab.unsafe_get state off = 1 in
  let e_tag off = Slab.unsafe_get state (off + 1) in
  let e_target off = Slab.unsafe_get state (off + 2) in
  let e_kind off = Types.branch_kind_of_int (Slab.unsafe_get state (off + 3)) in
  let set_of pc = Hashing.pc_index ~pc ~bits:set_bits in
  let tag_of pc = Hashing.fold_int (Hashing.mix2 (Hashing.pc_bits pc) 0) ~width:62 ~bits:cfg.tag_bits in
  (* The hit way, or -1. A ref-based scan: an inner recursive closure would
     heap-allocate per lookup, and this runs per slot per predict. *)
  let lookup pc =
    let s = set_of pc and tag = tag_of pc in
    let hit = ref (-1) in
    let w = ref 0 in
    while !hit < 0 && !w < cfg.ways do
      let off = entry_off s !w in
      if e_valid off && e_tag off = tag then hit := !w;
      incr w
    done;
    !hit
  in
  (* Metadata layout, one word per slot: hit flag (bit 0), hit way above. *)
  let way_bits = max 1 (Bitops.bits_needed cfg.ways) in
  let slot_bits = 1 + way_bits in
  let meta_bits = cfg.fetch_width * slot_bits in
  let packer = Bitpack.Packer.create ~owner:cfg.name ~width:meta_bits in
  let predict (ctx : Context.t) ~pred_in:_ ~out ~meta =
    let live = Context.live_bound ctx cfg.fetch_width in
    for slot = 0 to live - 1 do
      let pc = Context.slot_pc ctx slot in
      let w = lookup pc in
      if w < 0 then Bitpack.Packer.add packer 0 ~bits:slot_bits
      else begin
        Bitpack.Packer.add packer (1 lor (Bitpack.field w ~bits:way_bits lsl 1)) ~bits:slot_bits;
        let off = entry_off (set_of pc) w in
        let kind = e_kind off in
        if Types.is_unconditional kind then
          Row.set_full out slot ~kind ~taken:true ~target:(e_target off)
        else Row.set_branch out slot ~kind ~target:(e_target off)
      end
    done;
    Bitpack.Packer.add_zeros packer ~bits:((cfg.fetch_width - live) * slot_bits);
    Bitpack.Packer.finish_into packer meta
  in
  let update (ev : Component.event) =
    for slot = 0 to cfg.fetch_width - 1 do
      let (r : Types.resolved) = ev.slots.(slot) in
      (* Allocate/refresh entries for branches observed taken; a branch the
         BTB has never seen taken cannot redirect fetch and need not
         occupy a way. *)
      if r.r_is_branch && r.r_taken then begin
        let word = Bits.extract_int ev.meta ~lo:(slot * slot_bits) ~len:slot_bits in
        let pc = Context.slot_pc ev.ctx slot in
        let set_idx = set_of pc in
        let w =
          if word land 1 = 1 then word lsr 1
          else begin
            (* Prefer an invalid way, else round-robin replacement. *)
            let invalid = ref (-1) in
            let i = ref 0 in
            while !invalid < 0 && !i < cfg.ways do
              if not (e_valid (entry_off set_idx !i)) then invalid := !i;
              incr i
            done;
            if !invalid >= 0 then !invalid
            else begin
              let i = Slab.unsafe_get state (replace_base + set_idx) in
              Slab.unsafe_set state (replace_base + set_idx) ((i + 1) mod cfg.ways);
              i
            end
          end
        in
        let off = entry_off set_idx w in
        Slab.unsafe_set state off 1;
        Slab.unsafe_set state (off + 1) (tag_of pc);
        Slab.unsafe_set state (off + 2) r.r_target;
        Slab.unsafe_set state (off + 3) (Types.branch_kind_to_int r.r_kind)
      end
    done
  in
  let entry_bits = 1 + cfg.tag_bits + target_bits + 3 in
  let storage =
    Storage.make
      ~sram_bits:(entries cfg * entry_bits)
      ~flop_bits:(cfg.sets * Bitops.bits_needed (max 2 cfg.ways))
      ~logic_gates:(cfg.fetch_width * cfg.ways * 60)
      ()
  in
  Component.make ~name:cfg.name ~family:Component.Btb ~latency:cfg.latency ~meta_bits ~storage
    ~fetch_width:cfg.fetch_width ~state ~predict ~update ()
