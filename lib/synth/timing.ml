type path = { description : string; delay_ps : int; meets_clock : bool }

(* Logic depth estimates in FO4: a b-bit comparator is ~log2(b)+2 FO4, an
   n-input priority mux is ~2*log2(n)+2 FO4, an index hash (folded history
   xor tree plus PC fold) ~10 FO4. *)
let log2_ceil n =
  let rec loop acc v = if v >= n then acc else loop (acc + 1) (v * 2) in
  loop 0 1

let comparator_fo4 bits = log2_ceil (max 2 bits) + 2
let mux_fo4 inputs = (2 * log2_ceil (max 2 inputs)) + 2
let hash_fo4 = 10

let tech = Tech.default

(* Clock uncertainty, setup and margin eat ~20% of the period in signoff. *)
let effective_period = tech.Tech.target_clock_ps * 8 / 10

let table_read_path ~stages ~tag_bits ~arbitration_inputs () =
  if stages < 1 then invalid_arg "Timing.table_read_path: stages < 1";
  (* Predictor memories are compiled macros, slower than cache SRAMs. *)
  let read = tech.Tech.sram_read_ps + 130 in
  let hash_ps = hash_fo4 * tech.Tech.fo4_ps in
  let compare_ps = comparator_fo4 tag_bits * tech.Tech.fo4_ps in
  let arb_ps = mux_fo4 arbitration_inputs * tech.Tech.fo4_ps in
  let flop_overhead = 6 * tech.Tech.fo4_ps in
  (* Work splits at pipeline-register boundaries: with enough stages each
     slice holds one of {hash+read, compare, arbitrate}. *)
  let slices =
    match stages with
    | 1 -> [ hash_ps + read + compare_ps + arb_ps ]
    | 2 -> [ hash_ps + read; compare_ps + arb_ps ]
    | _ -> [ hash_ps + read; compare_ps; arb_ps ]
  in
  let worst = List.fold_left max 0 slices + flop_overhead in
  {
    description =
      Printf.sprintf "%d-stage tagged read (tag=%db, arb=%d-way)" stages tag_bits
        arbitration_inputs;
    delay_ps = worst;
    meets_clock = worst <= effective_period;
  }

let tage_path ~latency ~tables ~tag_bits () =
  (* Histories arrive at Fetch-1, so a latency-n TAGE has n-1 stages for
     read + compare + arbitration across [tables] providers. *)
  table_read_path ~stages:(max 1 (latency - 1)) ~tag_bits ~arbitration_inputs:tables ()
