module Bitpack = Cobra_util.Bitpack
module Counter = Cobra_util.Counter
module Hashing = Cobra_util.Hashing
module Slab = Cobra_util.Slab
open Cobra

type config = {
  name : string;
  latency : int;
  table_bits : int;
  counter_bits : int;
  history_lengths : int list;
  threshold : int;
  fetch_width : int;
}

let default ~name =
  {
    name;
    latency = 3;
    table_bits = 10;
    counter_bits = 4;
    history_lengths = [ 0; 2; 4; 8; 16; 32 ];
    threshold = 6;
    fetch_width = 4;
  }

let storage_bits cfg =
  List.length cfg.history_lengths * (1 lsl cfg.table_bits) * cfg.counter_bits

(* Metadata: per slot, each table's counter biased into unsigned range. *)
let slot_layout cfg = List.map (fun _ -> cfg.counter_bits + 1) cfg.history_lengths
let meta_layout cfg = List.concat_map (fun _ -> slot_layout cfg) (List.init cfg.fetch_width Fun.id)

let make cfg =
  let ntables = List.length cfg.history_lengths in
  if ntables < 1 then invalid_arg (cfg.name ^ ": no tables");
  let lengths = Array.of_list cfg.history_lengths in
  (* slab layout: table t's entry i (signed counter) at cell t*2^table_bits + i *)
  let bank_size = 1 lsl cfg.table_bits in
  let state = Slab.create (ntables * bank_size) in
  let bias = 1 lsl cfg.counter_bits in
  let index (ctx : Context.t) ~slot ~table =
    let pc_part = Hashing.pc_index ~pc:(Context.slot_pc ctx slot) ~bits:cfg.table_bits in
    if lengths.(table) = 0 then pc_part
    else
      pc_part
      lxor Hashing.folded_history ctx.ghist ~len:lengths.(table) ~bits:cfg.table_bits
      lxor Hashing.fold_int (Hashing.mix2 table 41) ~width:62 ~bits:cfg.table_bits
  in
  let meta_bits = Bitpack.width_of (meta_layout cfg) in
  let predict (ctx : Context.t) ~pred_in ~out ~meta =
    if Array.length pred_in <> 1 then invalid_arg (cfg.name ^ ": one predict_in");
    let base = pred_in.(0) in
    let fields = ref [] in
    for slot = 0 to cfg.fetch_width - 1 do
      let sum = ref 0 in
      (* ascending table order: update's List.iteri pairs field [t] with
         bank [t], so the pack order must match *)
      for t = 0 to ntables - 1 do
        let c = Slab.get state ((t * bank_size) + index ctx ~slot ~table:t) in
        sum := !sum + c;
        fields := (c + bias, cfg.counter_bits + 1) :: !fields
      done;
      if not (Row.unconditional base slot) then Row.set_taken out slot (!sum >= 0)
    done;
    Bitpack.store ~owner:cfg.name (Bitpack.pack ~width:meta_bits (List.rev !fields)) ~dst:meta
  in
  let update (ev : Component.event) =
    let fields = Bitpack.unpack ev.meta (meta_layout cfg) in
    let rec per_slot slot = function
      | [] -> ()
      | rest ->
        let counters = List.filteri (fun i _ -> i < ntables) rest in
        let rest' = List.filteri (fun i _ -> i >= ntables) rest in
        let (r : Types.resolved) = ev.slots.(slot) in
        if Types.cond_branch r then begin
          let counters = List.map (fun c -> c - bias) counters in
          let sum = List.fold_left ( + ) 0 counters in
          let predicted = sum >= 0 in
          if predicted <> r.r_taken || abs sum <= cfg.threshold then
            List.iteri
              (fun t c ->
                Slab.set state
                  ((t * bank_size) + index ev.ctx ~slot ~table:t)
                  (Counter.update_signed ~bits:cfg.counter_bits c
                     ~dir:(if r.r_taken then 1 else -1)))
              counters
        end;
        per_slot (slot + 1) rest'
    in
    per_slot 0 fields
  in
  Component.make ~name:cfg.name ~family:Component.Perceptron ~latency:cfg.latency ~meta_bits
    ~fetch_width:cfg.fetch_width ~storage:(Storage.make ~sram_bits:(storage_bits cfg) ())
    ~state ~predict ~update ()
