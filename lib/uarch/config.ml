type history_divergence = Ignore | Repair | Replay

type t = {
  fetch_buffer : int;
  decode_width : int;
  commit_width : int;
  rob_entries : int;
  int_alus : int;
  mem_ports : int;
  fp_units : int;
  history_divergence : history_divergence;
  ras_repair : bool;
  serialize_fetch : bool;
  sfb_optimization : bool;
}

let default =
  {
    fetch_buffer = 32;
    decode_width = 4;
    commit_width = 4;
    rob_entries = 128;
    int_alus = 4;
    mem_ports = 2;
    fp_units = 2;
    history_divergence = Replay;
    ras_repair = true;
    serialize_fetch = false;
    sfb_optimization = false;
  }

let divergence_name = function Ignore -> "ignore" | Repair -> "repair" | Replay -> "replay"

let spec t =
  Printf.sprintf "fb=%d;dw=%d;cw=%d;rob=%d;alu=%d;mem=%d;fp=%d;hdiv=%s;rasr=%b;ser=%b;sfb=%b"
    t.fetch_buffer t.decode_width t.commit_width t.rob_entries t.int_alus t.mem_ports
    t.fp_units (divergence_name t.history_divergence) t.ras_repair t.serialize_fetch
    t.sfb_optimization

let rows t =
  [
    ( "Frontend",
      Printf.sprintf "%d-byte wide fetch"
        (4 * Cobra.Pipeline.default_config.Cobra.Pipeline.fetch_width) );
    ("", Printf.sprintf "%d-wide decode/rename/commit" t.decode_width);
    ("Execute", Printf.sprintf "%d-entry ROB" t.rob_entries);
    ( "",
      Printf.sprintf "%d pipelines (%d ALU, %d MEM, %d FP)"
        (t.int_alus + t.mem_ports + t.fp_units)
        t.int_alus t.mem_ports t.fp_units );
    ("Load-Store Unit", Printf.sprintf "%d LD or 1 ST per cycle" t.mem_ports);
    ("L1 Caches", "8-way 32 KB ICache and DCache, next-line prefetcher");
    ("L2 Cache", "8-way 512 KB");
    ("L3 Cache", "4 MB LLC model");
    ("Memory", "flat-latency DDR3-class timing model");
  ]
