type t = { predict_pj : float; update_pj : float }

(* A prediction reads a fetch-width worth of entries from each memory; the
   exact fraction touched is structure-dependent, so we charge the classic
   approximation: energy proportional to the square root of the array size
   (bitline+wordline activation), per port touched. *)
let access_fraction bits = if bits <= 0 then 0.0 else Float.sqrt (float_of_int bits)

let tech = Tech.default

let of_pipeline pl =
  let components = Array.to_list (Cobra.Pipeline.components pl) in
  let storage_energy (s : Cobra.Storage.t) =
    (access_fraction s.Cobra.Storage.sram_bits *. tech.Tech.sram_read_pj_per_bit)
    +. (float_of_int s.Cobra.Storage.flop_bits *. tech.Tech.flop_read_pj_per_bit /. 8.0)
  in
  let component_pj =
    List.fold_left
      (fun acc (c : Cobra.Component.t) -> acc +. storage_energy c.storage)
      0.0 components
  in
  let management_pj = storage_energy (Cobra.Pipeline.management_storage pl) in
  {
    predict_pj = component_pj +. (0.25 *. management_pj);
    update_pj = (0.5 *. component_pj) +. (0.5 *. management_pj);
  }

let per_kilo_instruction pl ~packets_per_ki =
  let e = of_pipeline pl in
  (* one predict and (amortised) one update per packet; pJ -> nJ *)
  packets_per_ki *. (e.predict_pj +. e.update_pj) /. 1000.0
