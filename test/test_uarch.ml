open Cobra_uarch
module Trace = Cobra_isa.Trace

let check = Alcotest.check

(* --- cache ------------------------------------------------------------------ *)

let test_cache_hit_after_fill () =
  let c = Cache.create ~name:"t" ~size_bytes:1024 ~ways:2 ~line_bytes:64 in
  check Alcotest.bool "cold miss" false (Cache.access c ~addr:0x1000);
  check Alcotest.bool "warm hit" true (Cache.access c ~addr:0x1000);
  check Alcotest.bool "same line hit" true (Cache.access c ~addr:0x103F);
  check Alcotest.bool "next line misses" false (Cache.access c ~addr:0x1040)

let test_cache_lru () =
  (* 2 ways: A, B, touch A, insert C (same set) -> B evicted *)
  let c = Cache.create ~name:"t" ~size_bytes:(2 * 64 * 8) ~ways:2 ~line_bytes:64 in
  let set_stride = 8 * 64 in
  let a = 0x0 and b = set_stride and cc = 2 * set_stride in
  ignore (Cache.access c ~addr:a);
  ignore (Cache.access c ~addr:b);
  ignore (Cache.access c ~addr:a);
  ignore (Cache.access c ~addr:cc);
  check Alcotest.bool "A survives" true (Cache.probe c ~addr:a);
  check Alcotest.bool "B evicted" false (Cache.probe c ~addr:b)

let test_cache_prefetch () =
  let c = Cache.create ~name:"t" ~size_bytes:1024 ~ways:2 ~line_bytes:64 in
  Cache.prefetch c ~addr:0x2000;
  check Alcotest.int "prefetch counts no stats" 0 (Cache.hits c + Cache.misses c);
  check Alcotest.bool "line resident" true (Cache.access c ~addr:0x2000)

let prop_cache_never_negative =
  QCheck.Test.make ~name:"cache stats consistent" ~count:50
    QCheck.(list_of_size (Gen.int_range 1 200) (int_bound 100_000))
    (fun addrs ->
      let c = Cache.create ~name:"p" ~size_bytes:4096 ~ways:4 ~line_bytes:64 in
      List.iter (fun a -> ignore (Cache.access c ~addr:a)) addrs;
      Cache.hits c + Cache.misses c = List.length addrs)

(* --- memory model -------------------------------------------------------------- *)

let test_mem_hierarchy_latencies () =
  let m = Mem_model.create () in
  let lat = Mem_model.default_latencies in
  let first = Mem_model.load_latency m ~addr:0x12345 in
  check Alcotest.bool "cold load is slow" true (first > lat.Mem_model.l1);
  check Alcotest.int "warm load hits L1" lat.Mem_model.l1
    (Mem_model.load_latency m ~addr:0x12345)

let test_fetch_next_line_prefetch () =
  let m = Mem_model.create () in
  ignore (Mem_model.fetch_latency m ~addr:0x4000);
  check Alcotest.int "sequential line prefetched" 0 (Mem_model.fetch_latency m ~addr:0x4040)

(* --- RAS -------------------------------------------------------------------------- *)

let test_ras_lifo () =
  let r = Ras.create ~entries:4 in
  Ras.push r 0x100;
  Ras.push r 0x200;
  check Alcotest.(option int) "peek" (Some 0x200) (Ras.peek r);
  check Alcotest.(option int) "pop" (Some 0x200) (Ras.pop r);
  check Alcotest.(option int) "pop 2" (Some 0x100) (Ras.pop r);
  check Alcotest.(option int) "empty" None (Ras.pop r)

let test_ras_overflow_wraps () =
  let r = Ras.create ~entries:2 in
  List.iter (Ras.push r) [ 1; 2; 3 ];
  check Alcotest.(option int) "newest" (Some 3) (Ras.pop r);
  check Alcotest.(option int) "second" (Some 2) (Ras.pop r);
  check Alcotest.(option int) "oldest clobbered" None (Ras.pop r)

(* --- SFB transform ------------------------------------------------------------------ *)

let hammock_events ~taken =
  (* pc 0x100: branch over one instruction to 0x108 *)
  let branch =
    {
      (Trace.plain ~pc:0x100 ~cls:Trace.Alu) with
      Trace.branch = Some { Trace.kind = Cobra.Types.Cond; taken; target = 0x108 };
      next_pc = (if taken then 0x108 else 0x104);
      srcs = [ 7 ];
    }
  in
  let shadow = { (Trace.plain ~pc:0x104 ~cls:Trace.Alu) with Trace.dst = Some 8 } in
  let after = Trace.plain ~pc:0x108 ~cls:Trace.Alu in
  if taken then [ branch; after ] else [ branch; shadow; after ]

let test_sfb_taken_inserts_nops () =
  let s = Sfb.transform (Trace.of_list (hammock_events ~taken:true)) in
  let out = Trace.take s 10 in
  check Alcotest.int "three events" 3 (List.length out);
  let flag = List.nth out 0 and nop = List.nth out 1 and after = List.nth out 2 in
  check Alcotest.bool "branch became non-branch" true (flag.Trace.branch = None);
  check Alcotest.bool "gap filled with nop" true (nop.Trace.cls = Trace.Nop);
  check Alcotest.(list int) "nop depends on the flag" [ 7 ] nop.Trace.srcs;
  check Alcotest.int "stream continues at target" 0x108 after.Trace.pc;
  (* pc chain stays coherent *)
  check Alcotest.int "flag falls through" 0x104 flag.Trace.next_pc;
  check Alcotest.int "nop falls through" 0x108 nop.Trace.next_pc

let test_sfb_not_taken_predicates_shadow () =
  let s = Sfb.transform (Trace.of_list (hammock_events ~taken:false)) in
  let out = Trace.take s 10 in
  check Alcotest.int "three events" 3 (List.length out);
  let shadow = List.nth out 1 in
  check Alcotest.bool "shadow gains flag dependency" true (List.mem 7 shadow.Trace.srcs)

let test_sfb_leaves_long_branches () =
  let branch =
    {
      (Trace.plain ~pc:0x100 ~cls:Trace.Alu) with
      Trace.branch = Some { Trace.kind = Cobra.Types.Cond; taken = true; target = 0x400 };
      next_pc = 0x400;
    }
  in
  let s = Sfb.transform (Trace.of_list [ branch ]) in
  let out = Trace.take s 5 in
  check Alcotest.bool "still a branch" true ((List.hd out).Trace.branch <> None)

(* --- core model --------------------------------------------------------------------- *)

let tage_l () = Cobra_eval.Designs.pipeline Cobra_eval.Designs.tage_l

let run_core ?(config = Config.default) ?(insns = 20_000) stream =
  let core = Core.create config (tage_l ()) stream in
  Core.run core ~max_insns:insns

let test_core_commits_requested_instructions () =
  let perf = run_core (Cobra_workloads.Kernels.periodic_loop ~trips:5 ()) in
  check Alcotest.bool "committed >= requested" true (perf.Perf.instructions >= 20_000);
  check Alcotest.bool "ipc under machine width" true (Perf.ipc perf <= 4.0)

let test_core_finite_program_drains () =
  (* a program that halts: every instruction must commit exactly once *)
  let open Cobra_isa in
  let lines =
    [ Program.li 28 100; Program.label "l"; Program.addi 3 3 1; Program.addi 28 28 (-1);
      Program.bne 28 0 "l"; Program.halt ]
  in
  let m = Machine.create (Program.assemble lines) in
  let perf = run_core ~insns:100_000 (Machine.stream m) in
  (* li + 100 iterations x 3 *)
  check Alcotest.int "every retired instruction commits once" 301 perf.Perf.instructions

let test_core_deterministic () =
  let run () = run_core (Cobra_workloads.Kernels.aliasing ~sites:16 ~seed:5 ()) in
  let a = run () and b = run () in
  check Alcotest.int "same cycles" a.Perf.cycles b.Perf.cycles;
  check Alcotest.int "same mispredicts" a.Perf.mispredicts b.Perf.mispredicts

let test_core_perfect_on_unconditional_loop () =
  (* a straight unconditional loop: after warmup the BTB covers it *)
  let open Cobra_isa in
  let lines = [ Program.label "l"; Program.addi 3 3 1; Program.xor 4 3 3; Program.j "l" ] in
  let m = Machine.create (Program.assemble lines) in
  let perf = run_core ~insns:10_000 (Machine.stream m) in
  check Alcotest.bool "no resolution mispredicts" true (perf.Perf.mispredicts = 0);
  check Alcotest.bool "high ipc" true (Perf.ipc perf > 1.5)

let test_core_mispredict_penalty_visible () =
  (* random branches must cost cycles: IPC with 50% random branches is far
     below IPC with fully-biased ones *)
  let ipc_of bias =
    Perf.ipc (run_core (Cobra_workloads.Kernels.biased ~bias_percent:bias ~seed:3 ()))
  in
  let ipc_biased = ipc_of 100 and ipc_random = ipc_of 50 in
  check Alcotest.bool
    (Printf.sprintf "ipc %0.2f (biased) > %0.2f (random)" ipc_biased ipc_random)
    true
    (ipc_biased > ipc_random *. 1.3)

let test_serialize_fetch_costs_ipc () =
  let run serialize =
    Perf.ipc
      (run_core
         ~config:{ Config.default with Config.serialize_fetch = serialize }
         (Cobra_workloads.Dhrystone.stream ()))
  in
  let wide = run false and serial = run true in
  check Alcotest.bool
    (Printf.sprintf "serialized %0.3f < wide %0.3f" serial wide)
    true (serial < wide)

let test_memory_bound_workload_has_low_ipc () =
  let mcf = (Cobra_workloads.Suite.find "mcf").Cobra_workloads.Suite.make () in
  let x264 = (Cobra_workloads.Suite.find "x264").Cobra_workloads.Suite.make () in
  let ipc_mcf = Perf.ipc (run_core mcf) and ipc_x264 = Perf.ipc (run_core x264) in
  check Alcotest.bool
    (Printf.sprintf "mcf %0.2f well below x264 %0.2f" ipc_mcf ipc_x264)
    true
    (ipc_mcf < ipc_x264 /. 2.0)

let prop_core_accuracy_in_range =
  QCheck.Test.make ~name:"accuracy within [0,1]" ~count:8
    QCheck.(int_range 30 95)
    (fun bias ->
      let perf = run_core ~insns:5_000 (Cobra_workloads.Kernels.biased ~bias_percent:bias ~seed:bias ()) in
      let a = Perf.branch_accuracy perf in
      a >= 0.0 && a <= 1.0 && perf.Perf.cycles > 0)

(* --- counter pins -------------------------------------------------------------- *)

(* Every [Perf.counters] value of an 8,000-instruction [Experiment.run], in
   that list's order: cycles, instructions, branches, cond_branches,
   mispredicts, cond_mispredicts, misfetches, history_divergences, replays,
   flushes, fetch_packets, wrong_path_packets, icache_stall_cycles,
   frontend_stall_cycles. The default-config cells are the benchmark's uarch
   cells, with its pinned values. Only serialized fetch truncates a fetched
   packet at its first branch, so those runs pin that refetch path. *)
let pin_entries =
  let seeded name make =
    { Cobra_workloads.Suite.name; description = name; make; decode = None }
  in
  [
    seeded "h2p-mix" (Cobra_workloads.Kernels.h2p_mix ~seed:1);
    seeded "aliasing" (Cobra_workloads.Kernels.aliasing ~sites:32 ~seed:1);
    Cobra_workloads.Suite.find "x264";
    Cobra_workloads.Suite.find "mcf";
  ]

let counter_pins =
  let module D = Cobra_eval.Designs in
  let default = Config.default in
  let serial = { Config.default with Config.serialize_fetch = true } in
  [
    (D.tourney, default, "h2p-mix", [ 6570; 8000; 1089; 1052; 170; 170; 1; 250; 250; 170; 6241; 2753; 130; 29 ]);
    (D.tourney, default, "aliasing", [ 10470; 8000; 2295; 2226; 587; 587; 1; 1141; 1141; 587; 9753; 4790; 130; 0 ]);
    (D.tourney, default, "x264", [ 6799; 8000; 1017; 1006; 100; 100; 35; 1035; 1035; 100; 5645; 2385; 130; 532 ]);
    (D.tourney, default, "mcf", [ 62333; 8000; 3104; 1779; 903; 903; 26; 4963; 4963; 903; 32878; 20727; 130; 466 ]);
    (D.b2, default, "h2p-mix", [ 6218; 8000; 1089; 1052; 102; 102; 1; 139; 139; 102; 5942; 2457; 130; 44 ]);
    (D.b2, default, "aliasing", [ 10580; 8001; 2295; 2226; 594; 594; 1; 656; 656; 594; 9856; 4810; 130; 0 ]);
    (D.b2, default, "x264", [ 6520; 8000; 1017; 1006; 59; 59; 5; 1085; 1085; 59; 5380; 2023; 130; 523 ]);
    (D.b2, default, "mcf", [ 67269; 8000; 3104; 1779; 917; 917; 25; 6367; 6367; 917; 32692; 23714; 130; 374 ]);
    (D.tage_l, default, "h2p-mix", [ 6176; 8000; 1089; 1052; 92; 92; 1; 15; 15; 92; 4564; 1061; 130; 580 ]);
    (D.tage_l, default, "aliasing", [ 9262; 8000; 2295; 2226; 591; 591; 1; 48; 48; 591; 8541; 3461; 130; 0 ]);
    (D.tage_l, default, "x264", [ 6264; 8001; 1017; 1006; 56; 56; 5; 176; 176; 56; 4222; 1274; 130; 1118 ]);
    (D.tage_l, default, "mcf", [ 61937; 8001; 3105; 1780; 908; 908; 25; 1956; 1956; 908; 28467; 19713; 130; 644 ]);
    (D.tage_l, serial, "h2p-mix", [ 6175; 8000; 1089; 1052; 92; 92; 1; 0; 0; 92; 4601; 1125; 130; 620 ]);
    (D.tage_l, serial, "aliasing", [ 9519; 8000; 2295; 2226; 591; 591; 1; 46; 46; 591; 8798; 3741; 130; 0 ]);
    (D.tage_l, serial, "x264", [ 6249; 8001; 1017; 1006; 52; 52; 6; 29; 29; 52; 4673; 1526; 130; 774 ]);
    (D.tage_l, serial, "mcf", [ 64244; 8000; 3104; 1779; 891; 891; 25; 1295; 1295; 891; 28741; 20435; 130; 692 ]);
  ]

let pin_case (design, config, workload, want) =
  let name =
    Printf.sprintf "%s/%s%s" design.Cobra_eval.Designs.name workload
      (if config.Config.serialize_fetch then " serialized" else "")
  in
  Alcotest.test_case name `Quick (fun () ->
      let entry =
        List.find (fun e -> e.Cobra_workloads.Suite.name = workload) pin_entries
      in
      let perf = (Cobra_eval.Experiment.run ~insns:8_000 ~config design entry).perf in
      let got = Perf.counters perf in
      check
        Alcotest.(list (pair string int))
        name
        (List.map2 (fun (k, _) v -> (k, v)) got want)
        got)

let () =
  Alcotest.run "cobra_uarch"
    [
      ( "cache",
        [
          Alcotest.test_case "hit after fill" `Quick test_cache_hit_after_fill;
          Alcotest.test_case "lru" `Quick test_cache_lru;
          Alcotest.test_case "prefetch" `Quick test_cache_prefetch;
          Prop.test_case prop_cache_never_negative;
        ] );
      ( "mem_model",
        [
          Alcotest.test_case "hierarchy latencies" `Quick test_mem_hierarchy_latencies;
          Alcotest.test_case "next-line prefetch" `Quick test_fetch_next_line_prefetch;
        ] );
      ( "ras",
        [
          Alcotest.test_case "lifo" `Quick test_ras_lifo;
          Alcotest.test_case "overflow wraps" `Quick test_ras_overflow_wraps;
        ] );
      ( "sfb",
        [
          Alcotest.test_case "taken inserts nops" `Quick test_sfb_taken_inserts_nops;
          Alcotest.test_case "not-taken predicates shadow" `Quick
            test_sfb_not_taken_predicates_shadow;
          Alcotest.test_case "long branches untouched" `Quick test_sfb_leaves_long_branches;
        ] );
      ( "core",
        [
          Alcotest.test_case "commits requested" `Quick test_core_commits_requested_instructions;
          Alcotest.test_case "finite program drains" `Quick test_core_finite_program_drains;
          Alcotest.test_case "deterministic" `Quick test_core_deterministic;
          Alcotest.test_case "perfect on jump loop" `Quick test_core_perfect_on_unconditional_loop;
          Alcotest.test_case "mispredict penalty" `Quick test_core_mispredict_penalty_visible;
          Alcotest.test_case "serialize fetch costs" `Quick test_serialize_fetch_costs_ipc;
          Alcotest.test_case "memory-bound low ipc" `Quick test_memory_bound_workload_has_low_ipc;
          Prop.test_case prop_core_accuracy_in_range;
        ] );
      ("pins", List.map pin_case counter_pins);
    ]
