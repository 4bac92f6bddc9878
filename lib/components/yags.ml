module Bitpack = Cobra_util.Bitpack
module Counter = Cobra_util.Counter
module Hashing = Cobra_util.Hashing
module Slab = Cobra_util.Slab
open Cobra

type config = {
  name : string;
  latency : int;
  choice_bits : int;
  cache_bits : int;
  tag_bits : int;
  counter_bits : int;
  history_length : int;
  fetch_width : int;
}

let default ~name =
  {
    name;
    latency = 2;
    choice_bits = 12;
    cache_bits = 10;
    tag_bits = 8;
    counter_bits = 2;
    history_length = 10;
    fetch_width = 4;
  }

(* Metadata per slot: choice ctr, cache hit flag, cached ctr. *)
let slot_layout cfg = [ cfg.counter_bits; 1; cfg.counter_bits ]
let meta_layout cfg = List.concat_map (fun _ -> slot_layout cfg) (List.init cfg.fetch_width Fun.id)

let make cfg =
  (* slab layout: choice counters (one per cell), then the taken-exception
     cache, then the not-taken-exception cache; cache entry i at stride 3
     from its base — [+0]=valid, [+1]=tag, [+2]=ctr *)
  let n_choice = 1 lsl cfg.choice_bits in
  let n_cache = 1 lsl cfg.cache_bits in
  let t_base = n_choice in
  let nt_base = n_choice + (3 * n_cache) in
  let state = Slab.create (n_choice + (6 * n_cache)) in
  for i = 0 to n_choice - 1 do
    Slab.set state i (Counter.weakly_not_taken ~bits:cfg.counter_bits)
  done;
  let ce_valid off = Slab.unsafe_get state off = 1 in
  let ce_tag off = Slab.unsafe_get state (off + 1) in
  let ce_ctr off = Slab.unsafe_get state (off + 2) in
  let choice_index (ctx : Context.t) ~slot =
    Hashing.pc_index ~pc:(Context.slot_pc ctx slot) ~bits:cfg.choice_bits
  in
  let cache_index (ctx : Context.t) ~slot =
    Hashing.pc_index ~pc:(Context.slot_pc ctx slot) ~bits:cfg.cache_bits
    lxor Hashing.folded_history ctx.ghist ~len:cfg.history_length ~bits:cfg.cache_bits
  in
  let cache_tag (ctx : Context.t) ~slot =
    Hashing.fold_int
      (Hashing.mix2 (Hashing.pc_bits (Context.slot_pc ctx slot)) 11)
      ~width:62 ~bits:cfg.tag_bits
  in
  let meta_bits = Bitpack.width_of (meta_layout cfg) in
  let predict (ctx : Context.t) ~pred_in ~out ~meta =
    if Array.length pred_in <> 1 then invalid_arg (cfg.name ^ ": one predict_in");
    let base = pred_in.(0) in
    let fields = ref [] in
    for slot = 0 to cfg.fetch_width - 1 do
      let ch = Slab.unsafe_get state (choice_index ctx ~slot) in
      let bias_taken = Counter.is_taken ~bits:cfg.counter_bits ch in
      (* consult the cache holding exceptions to the bias *)
      let base_off = if bias_taken then nt_base else t_base in
      let off = base_off + (3 * cache_index ctx ~slot) in
      let hit = ce_valid off && ce_tag off = cache_tag ctx ~slot in
      let taken =
        if hit then Counter.is_taken ~bits:cfg.counter_bits (ce_ctr off) else bias_taken
      in
      fields :=
        ((if hit then ce_ctr off else 0), cfg.counter_bits) :: ((if hit then 1 else 0), 1)
        :: (ch, cfg.counter_bits) :: !fields;
      if not (Row.unconditional base slot) then Row.set_taken out slot taken
    done;
    Bitpack.store ~owner:cfg.name (Bitpack.pack ~width:meta_bits (List.rev !fields)) ~dst:meta
  in
  let update (ev : Component.event) =
    let fields = Bitpack.unpack ev.meta (meta_layout cfg) in
    let rec per_slot slot = function
      | ch :: hit :: cached :: rest ->
        let (r : Types.resolved) = ev.slots.(slot) in
        if Types.cond_branch r then begin
          let bias_taken = Counter.is_taken ~bits:cfg.counter_bits ch in
          let base_off = if bias_taken then nt_base else t_base in
          let off = base_off + (3 * cache_index ev.ctx ~slot) in
          if hit = 1 then
            Slab.unsafe_set state (off + 2)
              (Counter.update ~bits:cfg.counter_bits cached ~taken:r.r_taken)
          else if r.r_taken <> bias_taken then begin
            (* an exception to the bias: allocate in the exception cache *)
            Slab.unsafe_set state off 1;
            Slab.unsafe_set state (off + 1) (cache_tag ev.ctx ~slot);
            Slab.unsafe_set state (off + 2)
              (if r.r_taken then Counter.weakly_taken ~bits:cfg.counter_bits
               else Counter.weakly_not_taken ~bits:cfg.counter_bits)
          end;
          (* the choice table trains except when the cache corrected it *)
          let cache_was_right =
            hit = 1 && Counter.is_taken ~bits:cfg.counter_bits cached = r.r_taken
          in
          if not (cache_was_right && r.r_taken <> bias_taken) then
            Slab.unsafe_set state (choice_index ev.ctx ~slot)
              (Counter.update ~bits:cfg.counter_bits ch ~taken:r.r_taken)
        end;
        per_slot (slot + 1) rest
      | [] -> ()
      | _ -> assert false
    in
    per_slot 0 fields
  in
  let cache_bits_total =
    2 * (1 lsl cfg.cache_bits) * (1 + cfg.tag_bits + cfg.counter_bits)
  in
  Component.make ~name:cfg.name ~family:Component.Tagged_table ~latency:cfg.latency
    ~fetch_width:cfg.fetch_width ~meta_bits
    ~storage:
      (Storage.make
         ~sram_bits:(((1 lsl cfg.choice_bits) * cfg.counter_bits) + cache_bits_total)
         ())
    ~state ~predict ~update ()
