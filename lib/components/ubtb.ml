module Bitpack = Cobra_util.Bitpack
module Bits = Cobra_util.Bits
module Bitops = Cobra_util.Bitops
module Counter = Cobra_util.Counter
module Hashing = Cobra_util.Hashing
module Slab = Cobra_util.Slab
open Cobra

type config = { name : string; entries : int; counter_bits : int; fetch_width : int }

let default ~name = { name; entries = 32; counter_bits = 2; fetch_width = 4 }

let tag_bits = 30
let target_bits = 48

let make cfg =
  if cfg.entries < 1 then invalid_arg (cfg.name ^ ": entries < 1");
  (* slab layout: entry i at stride 5 — [5i]=valid, [+1]=pc_tag,
     [+2]=target, [+3]=kind (branch_kind_to_int), [+4]=ctr — then the
     round-robin replacement pointer, then the CAM tag index as
     [count; (tag, idx) x entries].  The CAM keeps at most one pair per
     tag (exactly a Hashtbl with replace-only inserts); pairs are
     injective into entry indexes — every pair's tag equals its entry's
     live pc_tag — so [entries] pairs always suffice. *)
  let replace_cell = 5 * cfg.entries in
  let cam_count_cell = replace_cell + 1 in
  let cam_base = replace_cell + 2 in
  let state = Slab.create (cam_base + (2 * cfg.entries)) in
  for i = 0 to cfg.entries - 1 do
    Slab.set state ((5 * i) + 4) (Counter.weakly_taken ~bits:cfg.counter_bits)
  done;
  let e_valid i = Slab.unsafe_get state (5 * i) = 1 in
  let e_pc_tag i = Slab.unsafe_get state ((5 * i) + 1) in
  let e_target i = Slab.unsafe_get state ((5 * i) + 2) in
  let e_kind i = Types.branch_kind_of_int (Slab.unsafe_get state ((5 * i) + 3)) in
  let e_ctr i = Slab.unsafe_get state ((5 * i) + 4) in
  let cb = cfg.counter_bits in
  let taken_at = Counter.weakly_taken ~bits:cb in
  let tag_of pc = Hashing.fold_int (Hashing.pc_bits pc) ~width:62 ~bits:tag_bits in
  (* The CAM match is modelled with a tag index kept in sync with the
     entry array — same observable behaviour as hardware. The position of
     the pair holding [tag], or -1. *)
  let cam_pair tag =
    let n = Slab.get state cam_count_cell in
    let found = ref (-1) in
    let k = ref 0 in
    while !found < 0 && !k < n do
      if Slab.unsafe_get state (cam_base + (2 * !k)) = tag then found := !k;
      incr k
    done;
    !found
  in
  (* The bound entry index, or -1. *)
  let cam_find tag =
    let k = cam_pair tag in
    if k < 0 then -1 else Slab.unsafe_get state (cam_base + (2 * k) + 1)
  in
  let cam_remove tag =
    let k = cam_pair tag in
    if k >= 0 then begin
      (* swap the last pair into the hole *)
      let last = Slab.get state cam_count_cell - 1 in
      Slab.unsafe_set state (cam_base + (2 * k)) (Slab.unsafe_get state (cam_base + (2 * last)));
      Slab.unsafe_set state
        (cam_base + (2 * k) + 1)
        (Slab.unsafe_get state (cam_base + (2 * last) + 1));
      Slab.set state cam_count_cell last
    end
  in
  let cam_replace tag i =
    let k = cam_pair tag in
    if k >= 0 then Slab.unsafe_set state (cam_base + (2 * k) + 1) i
    else begin
      let n = Slab.get state cam_count_cell in
      Slab.unsafe_set state (cam_base + (2 * n)) tag;
      Slab.unsafe_set state (cam_base + (2 * n) + 1) i;
      Slab.set state cam_count_cell (n + 1)
    end
  in
  (* The matching entry index, or -1. *)
  let lookup pc =
    let tag = tag_of pc in
    let i = cam_find tag in
    if i >= 0 && e_valid i && e_pc_tag i = tag then i else -1
  in
  let install i tag =
    (if e_valid i then cam_remove (e_pc_tag i));
    cam_replace tag i
  in
  (* Metadata layout, one word per slot: hit flag (bit 0), entry index,
     then the counter read at predict time. *)
  let way_bits = max 1 (Bitops.bits_needed cfg.entries) in
  let ctr_lo = 1 + way_bits in
  let slot_bits = ctr_lo + cb in
  let meta_bits = cfg.fetch_width * slot_bits in
  let packer = Bitpack.Packer.create ~owner:cfg.name ~width:meta_bits in
  let predict (ctx : Context.t) ~pred_in:_ ~out ~meta =
    let live = Context.live_bound ctx cfg.fetch_width in
    for slot = 0 to live - 1 do
      let i = lookup (Context.slot_pc ctx slot) in
      if i < 0 then Bitpack.Packer.add packer 0 ~bits:slot_bits
      else begin
        let ctr = e_ctr i in
        Bitpack.Packer.add packer
          (1
          lor (Bitpack.field i ~bits:way_bits lsl 1)
          lor (Bitpack.field ctr ~bits:cb lsl ctr_lo))
          ~bits:slot_bits;
        let kind = e_kind i in
        let taken = Types.is_unconditional kind || ctr >= taken_at in
        Row.set_full out slot ~kind ~taken ~target:(e_target i)
      end
    done;
    Bitpack.Packer.add_zeros packer ~bits:((cfg.fetch_width - live) * slot_bits);
    Bitpack.Packer.finish_into packer meta
  in
  let update (ev : Component.event) =
    for slot = 0 to cfg.fetch_width - 1 do
      let (r : Types.resolved) = ev.slots.(slot) in
      if r.r_is_branch then begin
        let word = Bits.extract_int ev.meta ~lo:(slot * slot_bits) ~len:slot_bits in
        if word land 1 = 1 then begin
          (* The entry may have been replaced since predict; only train a
             still-matching entry, as the hardware tag check would. *)
          let way = (word lsr 1) land ((1 lsl way_bits) - 1) in
          let pc = Context.slot_pc ev.ctx slot in
          if e_valid way && e_pc_tag way = tag_of pc then begin
            Slab.unsafe_set state ((5 * way) + 4)
              (Counter.update ~bits:cb (word lsr ctr_lo) ~taken:r.r_taken);
            if r.r_taken then Slab.unsafe_set state ((5 * way) + 2) r.r_target
          end
        end
        else if r.r_taken then begin
          let i = Slab.get state replace_cell in
          Slab.set state replace_cell ((i + 1) mod cfg.entries);
          install i (tag_of (Context.slot_pc ev.ctx slot));
          Slab.unsafe_set state (5 * i) 1;
          Slab.unsafe_set state ((5 * i) + 1) (tag_of (Context.slot_pc ev.ctx slot));
          Slab.unsafe_set state ((5 * i) + 2) r.r_target;
          Slab.unsafe_set state ((5 * i) + 3) (Types.branch_kind_to_int r.r_kind);
          Slab.unsafe_set state ((5 * i) + 4) (Counter.weakly_taken ~bits:cb)
        end
      end
    done
  in
  let entry_bits = 1 + tag_bits + target_bits + 3 + cfg.counter_bits in
  (* Small and fully associative: flops, not SRAM. *)
  let storage =
    Storage.make ~flop_bits:(cfg.entries * entry_bits)
      ~logic_gates:(cfg.entries * cfg.fetch_width * 25)
      ()
  in
  Component.make ~name:cfg.name ~family:Component.Micro_btb ~latency:1 ~meta_bits ~storage
    ~fetch_width:cfg.fetch_width ~state ~predict ~update ()
