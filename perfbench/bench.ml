(* The COBRA benchmark: one seeded run of one workload.

   A run exports one branch trace from the workload's seeded kernel and
   works on it in three phases:
   - replay: Replay.run_design over the trace for GShare and TAGE-L, on the
     compiled and on the interpreted engine;
   - uarch: Experiment.run (Core.run) of Tourney, B2 and TAGE-L over the
     seeded kernel and one SPEC-like kernel;
   - serve: a fresh [cobra serve] daemon with its own cache directory and
     socket, driven by one closed-loop client connection through rounds of
     a seeded mix of cold, warm, repeated and capped requests.
   Untraced (--trace 0) a run prints the end-to-end metrics a user of the
   simulator sees (Phases); traced (--trace 1) it prints per-layer metrics
   instead (Layers). Layers are timed from outside, through their public
   functions; no library code is instrumented. The last stdout line is one
   JSON object {"correct", "attempted", "failed", "metrics"}; the line
   before it, "counters {...}", holds the run's exact simulated counts. *)

let () =
  let workload = ref "" and seed = ref Ctx.default_seed and seconds = ref 10 and trace = ref 0 in
  let size = ref "full" and cli = ref "" and work = ref "" and spans = ref "" in
  let inject = ref false in
  let usage = "bench --workload NAME --seed N --seconds S --trace 0|1 --cli PATH --work DIR [--spans FILE]" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME h2p-mix or aliasing");
      ("--seed", Arg.Set_int seed, "N seed of the generated inputs");
      ("--seconds", Arg.Set_int seconds, "S measuring window of the untraced run");
      ("--trace", Arg.Set_int trace, "0|1 per-layer run with spans");
      ("--size", Arg.Symbol ([ "full"; "tiny" ], fun s -> size := s), " run size");
      ("--cli", Arg.Set_string cli, "PATH the cobra_cli executable");
      ("--work", Arg.Set_string work, "DIR scratch directory");
      ("--spans", Arg.Set_string spans, "FILE where a traced run writes its spans");
      ("--inject-mismatch", Arg.Set inject, " corrupt one replay counter before it is checked");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let usage_error m =
    prerr_endline ("perfbench: " ^ m ^ "\nusage: " ^ usage);
    exit 2
  in
  let w =
    match List.find_opt (fun (w : Ctx.workload) -> w.name = !workload) Ctx.workloads with
    | Some w -> w
    | None -> usage_error (Printf.sprintf "unknown workload %S" !workload)
  in
  if !trace <> 0 && !trace <> 1 then usage_error "--trace takes 0 or 1";
  if !cli = "" || !work = "" then usage_error "--cli and --work are required";
  let size = if !size = "tiny" then Ctx.tiny else Ctx.full in
  (* a daemon that dies mid-request must fail that request, not the run *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let ctx =
    {
      Ctx.w;
      seed = !seed;
      size;
      seconds = float_of_int (max 1 !seconds);
      cli = !cli;
      work = !work;
      jobs = Cobra_runner.Pool.default_jobs ();
      inject_mismatch = !inject;
      attempted = 0;
      failed = 0;
      metrics = [];
      counts = [];
    }
  in
  (try if !trace = 1 then Layers.run ctx else Phases.run ctx
   with e -> Ctx.fail ctx ("run aborted: " ^ Printexc.to_string e));
  if !trace = 1 && !spans <> "" then Span.write !spans;
  Ctx.report ctx
