type latencies = { l1 : int; l2 : int; l3 : int; dram : int }

let default_latencies = { l1 = 3; l2 = 14; l3 = 38; dram = 130 }

type t = {
  l1i : Cache.t;
  l1d : Cache.t;
  l2 : Cache.t;
  l3 : Cache.t;
}

let create () =
  {
    l1i = Cache.create ~name:"L1I" ~size_bytes:(32 * 1024) ~ways:8 ~line_bytes:64;
    l1d = Cache.create ~name:"L1D" ~size_bytes:(32 * 1024) ~ways:8 ~line_bytes:64;
    l2 = Cache.create ~name:"L2" ~size_bytes:(512 * 1024) ~ways:8 ~line_bytes:64;
    l3 = Cache.create ~name:"L3" ~size_bytes:(4 * 1024 * 1024) ~ways:16 ~line_bytes:64;
  }

let hierarchy_latency t ~l1 ~addr =
  let lat = default_latencies in
  if Cache.access l1 ~addr then lat.l1
  else if Cache.access t.l2 ~addr then lat.l2
  else if Cache.access t.l3 ~addr then lat.l3
  else lat.dram

let load_latency t ~addr = hierarchy_latency t ~l1:t.l1d ~addr

let store_latency t ~addr =
  ignore (hierarchy_latency t ~l1:t.l1d ~addr);
  1

let fetch_latency t ~addr =
  let lat = hierarchy_latency t ~l1:t.l1i ~addr in
  (* Ideal next-line prefetcher (Table II): the following line is resident
     by the time sequential fetch reaches it. *)
  Cache.prefetch t.l1i ~addr:(addr + 64);
  if lat <= default_latencies.l1 then 0 else lat
