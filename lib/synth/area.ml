type breakdown = { label : string; area_um2 : float }

(* Synthesised logic never reaches 100% placement density. *)
let utilisation = 0.75

let tech = Tech.default

let of_storage (s : Cobra.Storage.t) =
  let sram = Sram_compiler.area_of_bits s.Cobra.Storage.sram_bits in
  let flops = float_of_int s.Cobra.Storage.flop_bits *. tech.Tech.flop_um2 in
  let logic = float_of_int s.Cobra.Storage.logic_gates *. tech.Tech.nand2_um2 in
  sram +. ((flops +. logic) /. utilisation)

let pipeline_breakdown pl =
  let components =
    Array.to_list (Cobra.Pipeline.components pl)
    |> List.map (fun (c : Cobra.Component.t) ->
           { label = c.name; area_um2 = of_storage c.storage })
  in
  components
  @ [ { label = "Meta"; area_um2 = of_storage (Cobra.Pipeline.management_storage pl) } ]

let pipeline_total pl =
  List.fold_left (fun acc b -> acc +. b.area_um2) 0.0 (pipeline_breakdown pl)

(* Reference areas for the other units of the paper's 4-wide BOOM
   configuration (Table II), representative of a 4-wide out-of-order core on
   the modelled 7 nm-class process. Derived from the cache/queue geometries
   via the same SRAM model, with documented logic-dominated estimates for
   the execution units. *)
let core_units () =
  let sram_kb kb ports = Sram_compiler.area_of_bits ~ports (kb * 1024 * 8) in
  let logic gates = float_of_int gates *. tech.Tech.nand2_um2 /. utilisation in
  let flops n = float_of_int n *. tech.Tech.flop_um2 /. utilisation in
  [
    { label = "ICache (32 KB)"; area_um2 = sram_kb 32 1 +. logic 40_000 };
    { label = "DCache (32 KB)"; area_um2 = sram_kb 32 2 +. logic 80_000 };
    { label = "Issue units"; area_um2 = logic 700_000 +. flops (3 * 32 * 80) };
    { label = "ROB + rename"; area_um2 = flops (128 * 90) +. logic 250_000 };
    { label = "Register files"; area_um2 = flops ((128 + 96) * 64) +. logic 120_000 };
    { label = "FPU"; area_um2 = logic 600_000 };
    { label = "Load-store unit"; area_um2 = flops ((32 + 32) * 110) +. logic 180_000 };
    { label = "TLBs + PTW"; area_um2 = sram_kb 8 1 +. logic 60_000 };
  ]

let core_breakdown pl =
  core_units () @ [ { label = "Branch predictor"; area_um2 = pipeline_total pl } ]

let pp_breakdown ppf bs =
  let total = List.fold_left (fun acc b -> acc +. b.area_um2) 0.0 bs in
  List.iter
    (fun b ->
      Format.fprintf ppf "  %-22s %12.0f um^2  (%5.1f%%)@." b.label b.area_um2
        (100.0 *. b.area_um2 /. total))
    bs;
  Format.fprintf ppf "  %-22s %12.0f um^2@." "TOTAL" total
