(* Command-line driver for the COBRA framework. *)

open Cmdliner
open Cobra_eval

(* Every name a user types is parsed by a converter built from the one list
   that defines it, so an unknown name is a usage error (exit 124) whose
   message lists the valid ones. [found] takes a catalogue's own [find],
   which words that message; [named] finds an exact name in [items]. *)
let found ~docv find name = Arg.conv' ~docv (find, fun ppf x -> Format.pp_print_string ppf (name x))

let named ~docv ~kind name items =
  found ~docv
    (fun s ->
      match List.find_opt (fun x -> String.equal (name x) s) items with
      | Some x -> Ok x
      | None ->
        Error
          (Printf.sprintf "unknown %s %S (have: %s)" kind s
             (String.concat ", " (List.map name items))))
    name

(* A comma-separated list of [conv]'s values; an empty one would check
   nothing, so it is refused like a zero count. *)
let names_of conv =
  let parse s =
    match Arg.conv_parser (Arg.list conv) s with
    | Ok [] -> Error (`Msg "expected at least one name")
    | r -> r
  in
  Arg.conv (parse, Arg.conv_printer (Arg.list conv))

let design_name (d : Designs.t) = d.Designs.name

let design_arg =
  let doc =
    Printf.sprintf "Predictor design (%s)."
      (String.concat ", " (List.map design_name Designs.named))
  in
  Arg.(
    value
    & opt (named ~docv:"DESIGN" ~kind:"design" design_name Designs.named) Designs.tage_l
    & info [ "d"; "design" ] ~docv:"DESIGN" ~doc)

let workload_arg =
  let module Suite = Cobra_workloads.Suite in
  let doc = "Workload name (see $(b,cobra list workloads))." in
  Arg.(
    value
    & opt
        (named ~docv:"WORKLOAD" ~kind:"workload" (fun (e : Suite.entry) -> e.Suite.name) Suite.all)
        (Suite.find "dhrystone")
    & info [ "w"; "workload" ] ~docv:"WORKLOAD" ~doc)

(* A count that must measure something: zero or a negative value is a usage
   error (exit 124), not a run over nothing. *)
let count =
  let parse s =
    match int_of_string_opt (String.trim s) with
    | Some n when n > 0 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected a positive integer, got %S" s))
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

let default_insns = 100_000

let insns_arg =
  let doc = "Instructions to simulate." in
  Arg.(value & opt count default_insns & info [ "n"; "insns" ] ~docv:"N" ~doc)

(* The instruction cap of the verbs that read or write a finite trace:
   [None] when -n is not given. *)
let insns_cap_arg ~doc =
  Arg.(value & opt (some count) None & info [ "n"; "insns" ] ~docv:"N" ~doc)

(* Every verb's action is a thunk run through [user_errors], after one check
   of the whole environment: a COBRA_* name that is not a knob, or a knob
   with a malformed value, stops the verb before any work. An unopenable
   file raises [Sys_error] from deep inside a verb. Both are the user's
   error, reported as [cobra: <message>] with exit 124, not as an internal
   error with a backtrace. *)
let verb info action =
  let user_errors run =
    try
      Cobra_util.Env.check ();
      run ()
    with Failure m | Sys_error m -> Error (`Msg m)
  in
  Cmd.v info Term.(term_result (const user_errors $ action))

(* --- list ------------------------------------------------------------------ *)

let list_cmd =
  let show_designs () =
    Printf.printf "designs:\n";
    List.iter
      (fun (d : Designs.t) ->
        Printf.printf "  %-8s %s\n" d.Designs.name
          (Cobra.Topology.to_expression (d.Designs.make ())))
      Designs.named
  in
  let show_workloads () =
    Printf.printf "workloads:\n";
    List.iter
      (fun (e : Cobra_workloads.Suite.entry) ->
        Printf.printf "  %-12s %s\n" e.Cobra_workloads.Suite.name
          e.Cobra_workloads.Suite.description)
      Cobra_workloads.Suite.all
  in
  let show_components () =
    Printf.printf "sub-component library:\n";
    List.iter
      (fun (name, desc) -> Printf.printf "  %-10s %s\n" name desc)
      [
        ("HBIM", "counter table indexed by PC/ghist/lhist/phist/hash/concat (gshare, gselect)");
        ("BTB", "set-associative branch target buffer, 2-cycle");
        ("UBTB", "small fully-associative micro-BTB, 1-cycle");
        ("GTAG", "partially-tagged global-history counter table");
        ("TAGE", "multi-table tagged geometric-history predictor");
        ("LOOP", "loop trip-count predictor with speculative counting + repair");
        ("TOURNEY", "tournament selector over two predict_in inputs");
        ("YAGS", "taken/not-taken exception caches (extension)");
        ("PERCEPTRON", "history-dot-weights predictor (extension)");
        ("GEHL", "geometric-history adder tree of signed counters, O-GEHL (extension)");
        ("ITTAGE", "tagged indirect-target predictor (extension)");
        ("SC", "statistical corrector (extension)");
        ("STATIC", "always-taken / BTFN static predictors");
      ]
  in
  let show_env () =
    Printf.printf "environment knobs (default, value set or -, meaning):\n";
    List.iter
      (fun (k : Cobra_util.Env.knob) ->
        Printf.printf "  %-17s %-25s %-6s %s\n" k.Cobra_util.Env.name k.Cobra_util.Env.default
          (Option.value (Cobra_util.Env.value_set k) ~default:"-")
          k.Cobra_util.Env.doc)
      Cobra_util.Env.knobs
  in
  let sections =
    [
      ("designs", show_designs);
      ("workloads", show_workloads);
      ("components", show_components);
      ("env", show_env);
    ]
  in
  let all = ("all", fun () -> List.iter (fun (_, show) -> show ()) sections) in
  let what =
    Arg.(value & pos 0 (named ~docv:"WHAT" ~kind:"list section" fst (sections @ [ all ])) all
         & info [] ~docv:"WHAT"
             ~doc:(String.concat " | " (List.map fst (sections @ [ all ]))))
  in
  verb
    (Cmd.info "list"
       ~doc:"List designs, workloads, library components and environment knobs")
    Term.(const (fun (_, show) () -> Ok (show ())) $ what)

(* --- run ------------------------------------------------------------------- *)

let run_cmd =
  let serialize =
    Arg.(value & flag & info [ "serialize-fetch" ] ~doc:"End fetch packets at branches.")
  in
  let no_replay =
    Arg.(value & flag
         & info [ "no-replay" ] ~doc:"Do not replay fetch on history divergences.")
  in
  let sfb =
    Arg.(value & flag & info [ "sfb" ] ~doc:"Predicate short forward branches at decode.")
  in
  let run (d : Designs.t) (w : Cobra_workloads.Suite.entry) insns serialize no_replay sfb () =
    let config =
      {
        Cobra_uarch.Config.default with
        Cobra_uarch.Config.serialize_fetch = serialize;
        history_divergence = Cobra_uarch.Config.(if no_replay then Repair else Replay);
        sfb_optimization = sfb;
      }
    in
    let r = Experiment.run ~insns ~config d w in
    Format.printf "%s on %s:@.  %a@." d.Designs.name w.Cobra_workloads.Suite.name
      Cobra_uarch.Perf.pp r.Experiment.perf;
    Ok ()
  in
  verb (Cmd.info "run" ~doc:"Run a design on a workload and report counters")
    Term.(const run $ design_arg $ workload_arg $ insns_arg $ serialize $ no_replay $ sfb)

(* --- topology / storage ------------------------------------------------------ *)

let topology_cmd =
  let run (d : Designs.t) () =
    Format.printf "%a" Cobra.Topology.pp_pipeline (d.Designs.make ());
    Ok ()
  in
  verb (Cmd.info "topology" ~doc:"Print a design's topology and pipeline diagram")
    Term.(const run $ design_arg)

let storage_cmd =
  let run d () =
    let pl = Designs.pipeline d in
    Array.iter
      (fun (c : Cobra.Component.t) ->
        Format.printf "  %-10s %a@." c.Cobra.Component.name Cobra.Storage.pp
          c.Cobra.Component.storage)
      (Cobra.Pipeline.components pl);
    Format.printf "  %-10s %a@." "management" Cobra.Storage.pp
      (Cobra.Pipeline.management_storage pl);
    Format.printf "  %-10s %a@." "TOTAL" Cobra.Storage.pp (Cobra.Pipeline.storage pl);
    Format.printf "  area: %.0f um^2@." (Cobra_synth.Area.pipeline_total pl);
    Ok ()
  in
  verb (Cmd.info "storage" ~doc:"Print a design's storage and area accounting")
    Term.(const run $ design_arg)

let trace_cmd =
  let path_arg =
    Arg.(required & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
         ~doc:"Trace file path.")
  in
  let branch_flag =
    Arg.(value & flag
         & info [ "branch" ]
             ~doc:"Export a conditional-branch trace (CBP-style, replayable by the \
                   predictor-only fast path) instead of the full instruction-event trace.")
  in
  let text_flag =
    Arg.(value & flag
         & info [ "text" ] ~doc:"With $(b,--branch): human-readable text instead of binary.")
  in
  let branches_arg =
    Arg.(value & opt (some count) None
         & info [ "branches" ] ~docv:"N"
             ~doc:"With $(b,--branch): stop after $(docv) branch records (default: bound by \
                   $(b,--insns)).")
  in
  let insns_arg =
    insns_cap_arg ~doc:"Instructions to export (default: 100000, no cap with $(b,--branches))."
  in
  (* workload streams are infinite: a branch count, when given, is cap
     enough; otherwise the default instruction count bounds the export *)
  let dump (w : Cobra_workloads.Suite.entry) insns path branch text branches () =
    if branch then begin
      let format = if text then Cobra_trace_replay.Btrace.Text else Cobra_trace_replay.Btrace.Binary in
      let max_insns = if insns = None && branches = None then Some default_insns else insns in
      let nb, ni =
        Cobra_trace_replay.Writer.export_workload ~format ?max_branches:branches ?max_insns
          ~path w
      in
      Printf.printf "wrote %d branch records (%d instructions) to %s\n" nb ni path;
      Ok ()
    end
    else begin
      let events =
        Cobra_isa.Trace.take (w.Cobra_workloads.Suite.make ())
          (Option.value insns ~default:default_insns)
      in
      Cobra_isa.Trace_file.save ~path events;
      Printf.printf "wrote %d events to %s\n" (List.length events) path;
      Ok ()
    end
  in
  verb
    (Cmd.info "trace"
       ~doc:
         "Dump a workload's retired-path trace to a file: full instruction events by \
          default, or a compact branch trace with $(b,--branch) (both replayable with \
          $(b,cobra replay))")
    Term.(
      const dump $ workload_arg $ insns_arg $ path_arg $ branch_flag $ text_flag $ branches_arg)

let replay_cmd =
  let path_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE" ~doc:"Trace file.")
  in
  let branches_arg =
    Arg.(value & opt (some count) None
         & info [ "branches" ] ~docv:"N" ~doc:"Stop after $(docv) branch records.")
  in
  let stats_flag =
    Arg.(value & flag
         & info [ "stats" ]
             ~doc:"Attach the statistics collector (branch traces only): attribution, \
                   hard-branch tables, interval MPKI series.")
  in
  let json_flag =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"With $(b,--stats): emit the report as JSON, the only output on stdout \
                   (the summary line goes to stderr).")
  in
  let insns_arg =
    insns_cap_arg ~doc:"Stop after $(docv) instructions (default: the whole trace)."
  in
  let replay (d : Designs.t) path insns branches stats json () =
    let ( let* ) = Result.bind in
    match Cobra_trace_replay.Reader.detect path with
    | Cobra_trace_replay.Reader.Branch_binary | Cobra_trace_replay.Reader.Branch_text ->
      (* predictor-only fast path: no uarch core, constant memory; the
         compiled engine unless --stats asks for the collector, which needs
         an interpreted pipeline *)
      if stats then begin
        let res, report =
          Cobra_trace_replay.Replay.run_design_with_stats ?max_branches:branches
            ?max_insns:insns d ~path
        in
        (* with --json the report is stdout's one document *)
        (if json then prerr_endline else print_endline) (Cobra_trace_replay.Replay.summary res);
        if json then
          print_endline (Cobra_stats.Json.to_string (Cobra_stats.Report.to_json report))
        else print_string (Cobra_stats.Report.render report);
        Ok ()
      end
      else begin
        let res =
          Cobra_trace_replay.Replay.run_design ?max_branches:branches ?max_insns:insns d
            ~path
        in
        print_endline (Cobra_trace_replay.Replay.summary res);
        Ok ()
      end
    | Cobra_trace_replay.Reader.Other ->
      let* () =
        if stats || json then
          Error (`Msg "--stats/--json need a branch trace (made with cobra trace --branch)")
        else Ok ()
      in
      let pl = Designs.pipeline d in
      let events = Cobra_isa.Trace_file.load ~path in
      let core =
        Cobra_uarch.Core.create Cobra_uarch.Config.default pl (Cobra_isa.Trace.of_list events)
      in
      (* without -n, the whole trace: the core stops as its last event commits *)
      let max_insns = Option.value insns ~default:(List.length events) in
      let perf = Cobra_uarch.Core.run core ~max_insns in
      Format.printf "%s on %s:@.  %a@." d.Designs.name path Cobra_uarch.Perf.pp perf;
      Ok ()
  in
  verb
    (Cmd.info "replay"
       ~doc:
         "Run a design over a saved trace file: branch traces (binary or text, \
          auto-detected) take the predictor-only fast path; instruction-event traces \
          drive the full uarch core")
    Term.(
      const replay $ design_arg $ path_arg $ insns_arg $ branches_arg $ stats_flag $ json_flag)

(* --- sweep ------------------------------------------------------------------- *)

let sweep_cmd =
  let names =
    let sweep = named ~docv:"SWEEP" ~kind:"sweep" (fun (s : Sweeps.t) -> s.Sweeps.name) Sweeps.all in
    Arg.(value & pos_all sweep []
         & info [] ~docv:"SWEEP"
             ~doc:"Sweeps to run (default: all). See $(b,--list) for the valid names.")
  in
  let list_flag = Arg.(value & flag & info [ "list" ] ~doc:"List sweep names and exit.") in
  let insns =
    Arg.(value & opt (some count) None
         & info [ "n"; "insns" ] ~docv:"N"
             ~doc:"Instructions per run (default: \\$COBRA_INSNS or 100000).")
  in
  let jobs_opt =
    Arg.(value & opt (some count) None
         & info [ "j"; "jobs" ] ~docv:"JOBS"
             ~doc:"Parallel simulation workers (default: \\$COBRA_JOBS or the machine's \
                   recommended domain count; 1 is fully serial).")
  in
  let no_cache =
    Arg.(value & flag
         & info [ "no-cache" ] ~doc:"Recompute every run, ignoring the on-disk result cache.")
  in
  let run names list_flag insns jobs no_cache () =
    if list_flag then begin
      List.iter (fun (s : Sweeps.t) -> print_endline s.Sweeps.name) Sweeps.all;
      Ok ()
    end
    else begin
      (match jobs with Some j -> Unix.putenv "COBRA_JOBS" (string_of_int j) | None -> ());
      if no_cache then Unix.putenv "COBRA_CACHE" "0";
      List.iter
        (fun (s : Sweeps.t) ->
          if names = [] || List.memq s names then print_string (s.Sweeps.run ?insns ()))
        Sweeps.all;
      let store_errors = Cobra_runner.Progress.total_store_errors () in
      if store_errors > 0 then
        Error
          (`Msg
            (Printf.sprintf
               "%d result-cache store error%s during the sweep — results above are \
                complete, but nothing was persisted and a re-run will recompute \
                everything (check COBRA_CACHE_DIR permissions/space)"
               store_errors
               (if store_errors = 1 then "" else "s")))
      else Ok ()
    end
  in
  verb
    (Cmd.info "sweep"
       ~doc:
         "Run design-space sweeps through the parallel, cache-aware runner \
          (COBRA_JOBS/COBRA_CACHE/COBRA_EVENTS control it; the attribution sweep's \
          statistics reports are recomputed on every run, never cached)")
    Term.(const run $ names $ list_flag $ insns $ jobs_opt $ no_cache)

(* --- stats ------------------------------------------------------------------- *)

let stats_cmd =
  let json_flag =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON instead of tables.")
  in
  let csv_flag =
    Arg.(value & flag & info [ "csv" ] ~doc:"Emit the report as CSV instead of tables.")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE"
             ~doc:"Write the report to $(docv) instead of stdout.")
  in
  let run d w insns json csv out () =
    let ( let* ) = Result.bind in
    let* () =
      if json && csv then Error (`Msg "--json and --csv are mutually exclusive")
      else Ok ()
    in
    let _, report = Experiment.run_with_stats ~insns d w in
    let text =
      if json then Cobra_stats.Json.to_string (Cobra_stats.Report.to_json report) ^ "\n"
      else if csv then Cobra_stats.Report.to_csv report
      else Cobra_stats.Report.render report
    in
    (match out with
    | None -> print_string text
    | Some path ->
      let oc = open_out path in
      output_string oc text;
      close_out oc);
    Ok ()
  in
  verb
    (Cmd.info "stats"
       ~doc:
         "Run a design with the statistics collector attached and print per-component \
          mispredict attribution, arbitration tallies, hard-branch tables and interval \
          series (also available passively on any run via COBRA_STATS=1)")
    Term.(const run $ design_arg $ workload_arg $ insns_arg $ json_flag $ csv_flag $ out_arg)

(* --- conform ------------------------------------------------------------------ *)

let conform_cmd =
  let seed_arg =
    Arg.(value & opt (some int) None
         & info [ "seed" ] ~docv:"SEED"
             ~doc:"Fuzz seed (default: \\$COBRA_SEED or 2906). Failures replay from this one \
                   integer.")
  in
  let length_arg =
    Arg.(value & opt count 300
         & info [ "length" ] ~docv:"N" ~doc:"Packets or branches per fuzz shape.")
  in
  let artifact_arg =
    Arg.(value & opt (some string) None
         & info [ "artifact" ] ~docv:"FILE"
             ~doc:"On failure, write the replayable counterexample report to $(docv).")
  in
  let shapes_arg =
    let module Fuzz = Cobra_conformance.Fuzz in
    let shape =
      found ~docv:"SHAPE"
        (fun n -> try Ok (Fuzz.shape_of_name_exn n) with Failure m -> Error m)
        Fuzz.shape_name
    in
    Arg.(value & opt (names_of shape) Fuzz.all_shapes
         & info [ "shape" ] ~docv:"SHAPES" ~absent:"all"
             ~doc:
               (Printf.sprintf "Comma-separated fuzz shapes to run (case-insensitive). Valid: %s."
                  (String.concat ", " Fuzz.shape_names)))
  in
  let run seed length artifact shapes () =
    let seed =
      match seed with
      | Some s -> s
      | None -> Cobra_util.Env.(get seed)
    in
    let verdicts = Cobra_conformance.Crosscheck.run_all ~length ~shapes ~seed () in
    print_string (Cobra_conformance.Crosscheck.render verdicts);
    match Cobra_conformance.Crosscheck.counterexample verdicts with
    | None -> Ok ()
    | Some report ->
      (match artifact with
      | None -> ()
      | Some path ->
        let oc = open_out path in
        output_string oc report;
        close_out oc;
        Printf.eprintf "counterexample written to %s\n" path);
      Error (`Msg (Printf.sprintf "conformance failures (seed %d):\n%s" seed report))
  in
  verb
    (Cmd.info "conform"
       ~doc:
         "Cross-check every component against its pure-functional golden model (lockstep \
          fuzzing, storage accounting, twin-design differentials, repair-restores-state \
          metamorphic checks, compiled-engine differentials, Table-I storage pins)")
    Term.(const run $ seed_arg $ length_arg $ artifact_arg $ shapes_arg)

(* --- serve ------------------------------------------------------------------- *)

let serve_cmd =
  let socket_arg =
    Arg.(value & opt string "cobra.sock"
         & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")
  in
  let jobs_arg =
    Arg.(value & opt (some count) None
         & info [ "j"; "jobs" ] ~docv:"JOBS"
             ~doc:"Domain-pool width for sweep sharding (default: \\$COBRA_JOBS or the \
                   machine's recommended domain count).")
  in
  let timeout_arg =
    Arg.(value & opt (some float) None
         & info [ "timeout" ] ~docv:"SECONDS" ~doc:"Per-request replay budget.")
  in
  let request_arg =
    Arg.(value & opt (some string) None
         & info [ "request" ] ~docv:"JSON"
             ~doc:"Client mode: send one request line to a running daemon, print every \
                   response line, and exit (non-zero if the server answered with an \
                   error event).")
  in
  let shutdown_flag =
    Arg.(value & flag
         & info [ "shutdown" ] ~doc:"Client mode: ask a running daemon to exit.")
  in
  let run socket jobs timeout request shutdown () =
    let module Serve = Cobra_serve.Serve in
    if shutdown then Ok (Serve.shutdown ~socket ())
    else
      match request with
      | Some line ->
        let lines = Serve.request ?timeout_s:timeout ~socket line in
        List.iter print_endline lines;
        let failed =
          List.exists
            (fun l ->
              match Cobra_stats.Json.of_string l with
              | Ok j -> (
                match Cobra_stats.Json.member "event" j with
                | Some (Cobra_stats.Json.String "error") -> true
                | _ -> false)
              | Error _ -> false)
            lines
        in
        if failed then Error (`Msg "server answered with an error event") else Ok ()
      | None ->
        let cfg =
          {
            (Serve.default_config ~socket) with
            Serve.timeout_s = timeout;
            jobs = (match jobs with Some j -> j | None -> Cobra_runner.Pool.default_jobs ());
          }
        in
        Printf.eprintf "cobra serve: listening on %s (%d jobs)\n%!" socket cfg.Serve.jobs;
        (match Serve.serve (Serve.create cfg) with
        | () -> Ok ()
        | exception Unix.Unix_error (e, fn, arg) ->
          Error
            (`Msg (Printf.sprintf "%s(%s): %s" fn arg (Unix.error_message e))))
  in
  verb
    (Cmd.info "serve"
       ~doc:
         "Persistent sweep-serving daemon: line-delimited JSON requests \
          (ping/replay/sweep/probe/shutdown) over a Unix socket, design x trace sweeps sharded \
          over the domain pool, repeated points answered from the content-addressed \
          result cache (protocol spec in EXPERIMENTS.md)")
    Term.(const run $ socket_arg $ jobs_arg $ timeout_arg $ request_arg $ shutdown_flag)

(* --- probe ------------------------------------------------------------------- *)

let probe_cmd =
  let module Pattern = Cobra_probe.Pattern in
  let module Target = Cobra_probe.Target in
  let module Oracle = Cobra_probe.Oracle in
  let list_flag =
    Arg.(value & flag & info [ "list" ] ~doc:"List probe patterns and targets, then exit.")
  in
  let all_flag =
    Arg.(value & flag
         & info [ "all" ]
             ~doc:"Run the full matrix: every probe over every catalogued component and \
                   design (the default when no $(b,-p)/$(b,-t) is given; spelled out for \
                   CI legibility).")
  in
  let probes_arg =
    Arg.(value
         & opt (names_of (found ~docv:"PROBE" Pattern.find (fun p -> p.Pattern.p_name))) Pattern.all
         & info [ "p"; "probes" ] ~docv:"NAMES" ~absent:"all"
             ~doc:"Comma-separated probe patterns (case-insensitive).")
  in
  let targets_arg =
    Arg.(value
         & opt (names_of (found ~docv:"TARGET" Target.find (fun t -> t.Target.t_name))) Target.all
         & info [ "t"; "targets" ] ~docv:"NAMES" ~absent:"all"
             ~doc:"Comma-separated probe targets (case-insensitive).")
  in
  let demo_flag =
    Arg.(value & flag
         & info [ "demo-missized" ]
             ~doc:"Include the deliberately mis-parameterized demo target (declares 12 \
                   history bits, built with 8) — it must fail its capacity probe.")
  in
  let seed_arg =
    Arg.(value & opt (some int) None
         & info [ "seed" ] ~docv:"SEED"
             ~doc:"Probe stream seed (default: \\$COBRA_SEED or 2906). Streams are \
                   bit-identical per seed.")
  in
  let json_arg =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"Write the cobra-probe-report/1 JSON report to $(docv) ($(b,-) for \
                   stdout).")
  in
  let csv_arg =
    Arg.(value & opt (some string) None
         & info [ "csv" ] ~docv:"FILE" ~doc:"Write the per-level CSV report to $(docv).")
  in
  let level_arg =
    Arg.(value & opt int 8
         & info [ "level" ] ~docv:"N"
             ~doc:"Probe level for $(b,--export-trace)/$(b,--timing) (default 8).")
  in
  let export_arg =
    Arg.(value & opt (some string) None
         & info [ "export-trace" ] ~docv:"FILE"
             ~doc:"Instead of running the oracle: write the selected probe's stream (one \
                   probe, $(b,--level)) as a replayable branch trace and print its \
                   digest.")
  in
  let text_flag =
    Arg.(value & flag
         & info [ "text" ] ~doc:"With $(b,--export-trace): text format instead of binary.")
  in
  let timing_arg =
    Arg.(value & opt (some string) None
         & info [ "timing" ] ~docv:"FILE"
             ~doc:"Instead of the matrix verdicts: run one probe (one probe, one target, \
                   $(b,--level)) and write the cobra-probe-timing/1 interval series \
                   ($(b,-) for stdout).")
  in
  let write_out path text =
    if path = "-" then print_string text
    else begin
      let oc = open_out path in
      output_string oc text;
      close_out oc
    end
  in
  let run list_flag _all probes targets demo seed json csv level export text timing () =
    let ( let* ) = Result.bind in
    let seed =
      match seed with
      | Some s -> s
      | None -> Cobra_util.Env.(get seed)
    in
    if list_flag then begin
      Printf.printf "probes:\n";
      List.iter
        (fun (p : Pattern.t) ->
          Printf.printf "  %-8s level = %-10s %s\n" p.Pattern.p_name p.Pattern.p_unit
            p.Pattern.p_doc)
        Pattern.all;
      Printf.printf "targets:\n";
      List.iter
        (fun (t : Target.t) ->
          Printf.printf "  %-16s %-12s %s\n" t.Target.t_name t.Target.t_family
            t.Target.t_doc)
        (Target.all @ Target.demos);
      Ok ()
    end
    else
      let targets = if demo then targets @ Target.demos else targets in
      match export with
      | Some path ->
        let* probe =
          match probes with
          | [ p ] -> Ok p
          | _ -> Error (`Msg "--export-trace needs exactly one -p probe")
        in
        let stream = probe.Pattern.p_gen ~level ~seed in
        let format =
          if text then Cobra_trace_replay.Btrace.Text else Cobra_trace_replay.Btrace.Binary
        in
        Pattern.to_trace_file ~format ~path stream;
        Printf.printf "wrote %d records (warmup %d) to %s\n  digest %s\n"
          (Array.length stream.Pattern.s_records) stream.Pattern.s_warmup path
          (Pattern.digest stream);
        Ok ()
      | None -> (
        match timing with
        | Some path ->
          let* probe, target =
            match (probes, targets) with
            | [ p ], [ t ] -> Ok (p, t)
            | _ -> Error (`Msg "--timing needs exactly one -p probe and one -t target")
          in
          let j = Oracle.timing_series ~target ~probe ~level ~seed () in
          write_out path (Cobra_stats.Json.to_string j ^ "\n");
          Ok ()
        | None ->
          let rep = Oracle.run_matrix ~targets ~probes ~seed () in
          print_string (Oracle.render rep);
          (match json with
          | None -> ()
          | Some path ->
            write_out path (Cobra_stats.Json.to_string (Oracle.report_json rep) ^ "\n"));
          (match csv with
          | None -> ()
          | Some path -> write_out path (Oracle.report_csv rep));
          let fails = Oracle.failures rep in
          if fails = [] then Ok ()
          else
            Error
              (`Msg
                (Printf.sprintf "%d fidelity failure(s): %s" (List.length fails)
                   (String.concat ", "
                      (List.map
                         (fun (r : Oracle.result) ->
                           r.Oracle.r_target ^ "/" ^ r.Oracle.r_probe)
                         fails)))))
  in
  verb
    (Cmd.info "probe"
       ~doc:
         "Adversarial microbenchmark probe suite + predictor fidelity oracle: replay \
          parameterized branch patterns (history ladder, correlated pairs, loop scans, \
          phase storms, aliasing and tag stress) against predictors of declared geometry \
          and check the measured response against the analytical model — \
          semantics-vs-theory, complementing $(b,cobra conform)'s impl-vs-reimpl \
          lockstep")
    Term.(
      const run $ list_flag $ all_flag $ probes_arg $ targets_arg $ demo_flag $ seed_arg
      $ json_arg $ csv_arg $ level_arg $ export_arg $ text_flag $ timing_arg)

let tables_cmd =
  let run () =
    print_string (Tables.table_1 ());
    print_string (Tables.table_2 ());
    print_string (Tables.table_3 ());
    Ok ()
  in
  verb (Cmd.info "tables" ~doc:"Print the paper's Tables I-III") (Term.const run)

let main =
  Cmd.group
    (Cmd.info "cobra" ~version:"1.0.0"
       ~doc:"COBRA: composition of hardware branch predictors (cycle-level model)")
    [ list_cmd; run_cmd; topology_cmd; storage_cmd; tables_cmd; trace_cmd; replay_cmd;
      sweep_cmd; stats_cmd; conform_cmd; serve_cmd; probe_cmd ]

let () = exit (Cmd.eval main)
