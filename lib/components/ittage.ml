module Bitpack = Cobra_util.Bitpack
module Counter = Cobra_util.Counter
module Hashing = Cobra_util.Hashing
module Slab = Cobra_util.Slab
open Cobra

type table_spec = { history_length : int; index_bits : int; tag_bits : int }

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

(* Metadata per slot: hit(1) + provider table(3). *)
let slot_layout = [ 1; 3 ]
let meta_layout cfg = List.concat_map (fun _ -> slot_layout) (List.init cfg.fetch_width Fun.id)

let target_bits = 48

let make cfg =
  let ntables = List.length cfg.tables in
  if ntables < 1 || ntables > 8 then invalid_arg (cfg.name ^ ": 1..8 tables supported");
  let specs = Array.of_list cfg.tables in
  (* slab layout: per-table banks at formula base offsets, entry i of
     table t at stride 4 from its base: [+0]=valid, [+1]=tag, [+2]=target,
     [+3]=conf *)
  let tbase = Array.make ntables 0 in
  let total =
    let off = ref 0 in
    Array.iteri
      (fun t s ->
        tbase.(t) <- !off;
        off := !off + ((1 lsl s.index_bits) * 4))
      specs;
    !off
  in
  let state = Slab.create total in
  let entry_off ~table i = tbase.(table) + (4 * i) in
  let e_valid off = Slab.unsafe_get state off = 1 in
  let e_tag off = Slab.unsafe_get state (off + 1) in
  let e_target off = Slab.unsafe_get state (off + 2) in
  let e_conf off = Slab.unsafe_get state (off + 3) in
  let history (ctx : Context.t) = if cfg.use_path_history then ctx.phist else ctx.ghist in
  let index (ctx : Context.t) ~slot ~table =
    let s = specs.(table) in
    Hashing.pc_index ~pc:(Context.slot_pc ctx slot) ~bits:s.index_bits
    lxor Hashing.folded_history (history ctx) ~len:s.history_length ~bits:s.index_bits
    lxor Hashing.fold_int (Hashing.mix2 table 29) ~width:62 ~bits:s.index_bits
  in
  let tag_hash (ctx : Context.t) ~slot ~table =
    let s = specs.(table) in
    Hashing.fold_int
      (Hashing.mix2
         (Hashing.pc_bits (Context.slot_pc ctx slot))
         (Hashing.folded_history (history ctx) ~len:s.history_length ~bits:s.tag_bits
         + (table * 131)))
      ~width:62 ~bits:s.tag_bits
  in
  let lookup ctx ~slot ~table =
    let off = entry_off ~table (index ctx ~slot ~table) in
    if e_valid off && e_tag off = tag_hash ctx ~slot ~table then Some off else None
  in
  let find_provider ctx ~slot =
    let rec scan t =
      if t < 0 then None
      else match lookup ctx ~slot ~table:t with Some off -> Some (t, off) | None -> scan (t - 1)
    in
    scan (ntables - 1)
  in
  let meta_bits = Bitpack.width_of (meta_layout cfg) in
  let predict (ctx : Context.t) ~pred_in:_ ~out ~meta =
    let fields = ref [] in
    for slot = 0 to cfg.fetch_width - 1 do
      match find_provider ctx ~slot with
      | Some (t, off) ->
        fields := (t, 3) :: (1, 1) :: !fields;
        out.(slot) <-
          {
            Types.o_branch = Some true;
            o_kind = Some Types.Ind;
            o_taken = Some true;
            o_target = Some (e_target off);
          }
      | None -> fields := (0, 3) :: (0, 1) :: !fields
    done;
    Bitpack.store ~owner:cfg.name (Bitpack.pack ~width:meta_bits (List.rev !fields)) ~dst:meta
  in
  let update (ev : Component.event) =
    let fields = Bitpack.unpack ev.meta (meta_layout cfg) in
    let rec per_slot slot = function
      | hit :: provider :: rest ->
        let (r : Types.resolved) = ev.slots.(slot) in
        if r.r_is_branch && r.r_kind = Types.Ind && r.r_taken then begin
          let correct = ref false in
          if hit = 1 then begin
            match lookup ev.ctx ~slot ~table:provider with
            | Some off ->
              if e_target off = r.r_target then begin
                Slab.unsafe_set state (off + 3)
                  (Counter.increment ~bits:cfg.confidence_bits (e_conf off));
                correct := true
              end
              else if e_conf off > 0 then Slab.unsafe_set state (off + 3) (e_conf off - 1)
              else Slab.unsafe_set state (off + 2) r.r_target
            | None -> ()
          end;
          (* allocate in a longer-history table when wrong or missing *)
          if not !correct then begin
            let above = if hit = 1 then provider + 1 else 0 in
            let rec alloc t =
              if t < ntables then begin
                let off = entry_off ~table:t (index ev.ctx ~slot ~table:t) in
                if (not (e_valid off)) || e_conf off = 0 then begin
                  Slab.unsafe_set state off 1;
                  Slab.unsafe_set state (off + 1) (tag_hash ev.ctx ~slot ~table:t);
                  Slab.unsafe_set state (off + 2) r.r_target;
                  Slab.unsafe_set state (off + 3) 0
                end
                else begin
                  Slab.unsafe_set state (off + 3) (e_conf off - 1);
                  alloc (t + 1)
                end
              end
            in
            alloc above
          end
        end;
        per_slot (slot + 1) rest
      | [] -> ()
      | _ -> assert false
    in
    per_slot 0 fields
  in
  let storage_bits =
    List.fold_left
      (fun acc s ->
        acc + ((1 lsl s.index_bits) * (1 + s.tag_bits + target_bits + cfg.confidence_bits)))
      0 cfg.tables
  in
  Component.make ~name:cfg.name ~family:Component.Tagged_table ~latency:cfg.latency ~meta_bits
    ~storage:(Storage.make ~sram_bits:storage_bits ~logic_gates:(cfg.fetch_width * ntables * 100) ())
    ~state ~predict ~update ()
