module Bitpack = Cobra_util.Bitpack
module Counter = Cobra_util.Counter
module Hashing = Cobra_util.Hashing
module Slab = Cobra_util.Slab
open Cobra

type config = {
  name : string;
  latency : int;
  index_bits : int;
  counter_bits : int;
  history_length : int;
  threshold : int;
  fetch_width : int;
}

let default ~name =
  {
    name;
    latency = 3;
    index_bits = 10;
    counter_bits = 6;
    history_length = 8;
    threshold = 12;
    fetch_width = 4;
  }

(* Metadata per slot: incoming-direction validity and value, and the
   (biased) agreement counter read at predict. *)
let slot_layout cfg = [ 1; 1; cfg.counter_bits + 1 ]
let meta_layout cfg = List.concat_map (fun _ -> slot_layout cfg) (List.init cfg.fetch_width Fun.id)

let make cfg =
  (* slab layout: one signed agreement counter per cell (cells carry the
     signed value directly; the +bias encoding exists only in metadata) *)
  let state = Slab.create (1 lsl cfg.index_bits) in
  let bias = 1 lsl cfg.counter_bits in
  let index (ctx : Context.t) ~slot ~incoming =
    Hashing.combine ~bits:cfg.index_bits
      [
        Hashing.pc_index ~pc:(Context.slot_pc ctx slot) ~bits:cfg.index_bits;
        Hashing.folded_history ctx.ghist ~len:cfg.history_length ~bits:cfg.index_bits;
        (if incoming then 1 else 0);
      ]
  in
  let meta_bits = Bitpack.width_of (meta_layout cfg) in
  let predict (ctx : Context.t) ~pred_in ~out ~meta =
    if Array.length pred_in <> 1 then invalid_arg (cfg.name ^ ": expected exactly one predict_in");
    let base = pred_in.(0) in
    let fields = ref [] in
    for slot = 0 to cfg.fetch_width - 1 do
      if not (Row.taken_known base slot) then
        fields := (bias, cfg.counter_bits + 1) :: (0, 1) :: (0, 1) :: !fields
      else begin
        let incoming = Row.taken base slot in
        let c = Slab.get state (index ctx ~slot ~incoming) in
        fields :=
          (c + bias, cfg.counter_bits + 1) :: ((if incoming then 1 else 0), 1) :: (1, 1)
          :: !fields;
        if -c > cfg.threshold then
          (* the counter has saturated against the incoming prediction *)
          Row.set_taken out slot (not incoming)
      end
    done;
    Bitpack.store ~owner:cfg.name (Bitpack.pack ~width:meta_bits (List.rev !fields)) ~dst:meta
  in
  let update (ev : Component.event) =
    let fields = Bitpack.unpack ev.meta (meta_layout cfg) in
    let rec per_slot slot = function
      | valid :: inc :: biased :: rest ->
        let (r : Types.resolved) = ev.slots.(slot) in
        if valid = 1 && Types.cond_branch r then begin
          let incoming = inc = 1 in
          let c = biased - bias in
          let dir = if incoming = r.r_taken then 1 else -1 in
          Slab.set state (index ev.ctx ~slot ~incoming)
            (Counter.update_signed ~bits:(cfg.counter_bits + 1) c ~dir)
        end;
        per_slot (slot + 1) rest
      | [] -> ()
      | _ -> assert false
    in
    per_slot 0 fields
  in
  Component.make ~name:cfg.name ~family:Component.Corrector ~latency:cfg.latency ~meta_bits
    ~fetch_width:cfg.fetch_width
    ~storage:
      (Storage.make ~sram_bits:((1 lsl cfg.index_bits) * (cfg.counter_bits + 1)) ())
    ~state ~predict ~update ()
