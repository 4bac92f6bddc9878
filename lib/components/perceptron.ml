module Bitpack = Cobra_util.Bitpack
module Bits = Cobra_util.Bits
module Counter = Cobra_util.Counter
module Hashing = Cobra_util.Hashing
module Slab = Cobra_util.Slab
open Cobra

type config = {
  name : string;
  latency : int;
  table_bits : int;
  history_length : int;
  weight_bits : int;
  fetch_width : int;
}

let default ~name =
  { name; latency = 3; table_bits = 8; history_length = 16; weight_bits = 8; fetch_width = 4 }

(* Metadata per slot: |sum| clamped to 12 bits plus its sign. *)
let sum_bits = 12
let slot_layout = [ sum_bits; 1 ]
let meta_layout cfg = List.concat_map (fun _ -> slot_layout) (List.init cfg.fetch_width Fun.id)

let make cfg =
  let n_weights = cfg.history_length + 1 (* bias *) in
  (* slab layout: row r's weight w (signed) at cell r*n_weights + w;
     weight 0 is the bias *)
  let state = Slab.create ((1 lsl cfg.table_bits) * n_weights) in
  let index (ctx : Context.t) ~slot =
    Hashing.pc_index ~pc:(Context.slot_pc ctx slot) ~bits:cfg.table_bits
  in
  let dot (ctx : Context.t) row =
    let base = row * n_weights in
    let sum = ref (Slab.unsafe_get state base) in
    for i = 0 to cfg.history_length - 1 do
      let bit = Bits.get ctx.ghist i in
      let w = Slab.unsafe_get state (base + i + 1) in
      if bit then sum := !sum + w else sum := !sum - w
    done;
    !sum
  in
  let threshold = (2 * cfg.history_length) + 14 (* Jimenez's 1.93h + 14 ~ 2h + 14 *) in
  let meta_bits = Bitpack.width_of (meta_layout cfg) in
  let clamp_sum s = min ((1 lsl sum_bits) - 1) (abs s) in
  let predict (ctx : Context.t) ~pred_in ~out ~meta =
    if Array.length pred_in <> 1 then invalid_arg (cfg.name ^ ": one predict_in");
    let base = pred_in.(0) in
    let fields = ref [] in
    for slot = 0 to cfg.fetch_width - 1 do
      let sum = dot ctx (index ctx ~slot) in
      fields := ((if sum >= 0 then 1 else 0), 1) :: (clamp_sum sum, sum_bits) :: !fields;
      if not (Row.unconditional base slot) then Row.set_taken out slot (sum >= 0)
    done;
    Bitpack.store ~owner:cfg.name (Bitpack.pack ~width:meta_bits (List.rev !fields)) ~dst:meta
  in
  let update (ev : Component.event) =
    let fields = Bitpack.unpack ev.meta (meta_layout cfg) in
    let rec per_slot slot = function
      | mag :: sign :: rest ->
        let (r : Types.resolved) = ev.slots.(slot) in
        if Types.cond_branch r then begin
          let predicted = sign = 1 in
          if predicted <> r.r_taken || mag <= threshold then begin
            let base = index ev.ctx ~slot * n_weights in
            let dir = if r.r_taken then 1 else -1 in
            Slab.unsafe_set state base
              (Counter.update_signed ~bits:cfg.weight_bits (Slab.unsafe_get state base) ~dir);
            for i = 0 to cfg.history_length - 1 do
              let agree = Bits.get ev.ctx.ghist i = r.r_taken in
              Slab.unsafe_set state (base + i + 1)
                (Counter.update_signed ~bits:cfg.weight_bits
                   (Slab.unsafe_get state (base + i + 1))
                   ~dir:(if agree then 1 else -1))
            done
          end
        end;
        per_slot (slot + 1) rest
      | [] -> ()
      | _ -> assert false
    in
    per_slot 0 fields
  in
  Component.make ~name:cfg.name ~family:Component.Perceptron ~latency:cfg.latency ~meta_bits
    ~fetch_width:cfg.fetch_width
    ~storage:
      (Storage.make ~sram_bits:((1 lsl cfg.table_bits) * n_weights * cfg.weight_bits) ())
    ~state ~predict ~update ()
