type spec = { depth : int; width : int; ports : int }

type result = { macros : int; area_um2 : float; read_energy_pj : float }

let max_macro_bits = 64 * 1024 * 8 (* 64 KB *)

let tech = Tech.default

let map spec =
  if spec.depth < 1 || spec.width < 1 then invalid_arg "Sram_compiler.map: empty memory";
  if spec.ports < 1 || spec.ports > 2 then invalid_arg "Sram_compiler.map: 1 or 2 ports";
  let bits = spec.depth * spec.width in
  let macros = max 1 ((bits + max_macro_bits - 1) / max_macro_bits) in
  let port_factor = if spec.ports = 2 then 2.0 else 1.0 in
  let cell_area =
    float_of_int bits *. tech.Tech.sram_bit_um2 *. port_factor
    /. tech.Tech.sram_array_efficiency
  in
  let area_um2 = cell_area +. (float_of_int macros *. tech.Tech.sram_macro_overhead_um2) in
  let read_energy_pj = float_of_int spec.width *. tech.Tech.sram_read_pj_per_bit in
  { macros; area_um2; read_energy_pj }

let area_of_bits ?(ports = 1) bits =
  if bits = 0 then 0.0
  else
    let width = 64 in
    let depth = max 1 ((bits + width - 1) / width) in
    (map { depth; width; ports }).area_um2
