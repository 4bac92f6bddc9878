type result = {
  design : string;
  workload : string;
  perf : Cobra_uarch.Perf.t;
}

let default_insns () = Cobra_util.Env.(get insns)

let elaborate ?(config = Cobra_uarch.Config.default) (design : Designs.t)
    (workload : Cobra_workloads.Suite.entry) =
  let pl = Cobra.Pipeline.create design.Designs.pipeline_config (design.Designs.make ()) in
  let core =
    Cobra_uarch.Core.create ?decode:workload.Cobra_workloads.Suite.decode config pl
      (workload.Cobra_workloads.Suite.make ())
  in
  (pl, core)

let run_with_stats ?insns ?config (design : Designs.t) (workload : Cobra_workloads.Suite.entry) =
  let insns = match insns with Some n -> n | None -> default_insns () in
  let pl, core = elaborate ?config design workload in
  let coll = Cobra_stats.Collector.create pl in
  Cobra_uarch.Core.set_sampler core
    (Some
       (fun () ->
         let p = Cobra_uarch.Core.perf core in
         Cobra_stats.Collector.sample coll ~insns:p.Cobra_uarch.Perf.instructions
           ~cycles:p.Cobra_uarch.Perf.cycles ~mispredicts:p.Cobra_uarch.Perf.mispredicts));
  let perf = Cobra_uarch.Core.run core ~max_insns:insns in
  Cobra_stats.Collector.flush coll ~insns:perf.Cobra_uarch.Perf.instructions
    ~cycles:perf.Cobra_uarch.Perf.cycles ~mispredicts:perf.Cobra_uarch.Perf.mispredicts;
  Cobra_stats.Collector.detach coll;
  let report =
    Cobra_stats.Collector.report ~design:design.Designs.name
      ~workload:workload.Cobra_workloads.Suite.name
      ~perf:(Cobra_uarch.Perf.counters perf) coll
  in
  ( { design = design.Designs.name; workload = workload.Cobra_workloads.Suite.name; perf },
    report )

(* What sets a run apart from its design at its defaults, for naming its
   statistics export: the ["k=v"] fields of the core configuration's spec
   that differ from the default's. Empty at the defaults, which keeps the
   plain [<design>__<workload>] name. *)
let variant config =
  let base = String.split_on_char ';' (Cobra_uarch.Config.spec Cobra_uarch.Config.default) in
  String.concat "+"
    (List.filter
       (fun field -> not (List.mem field base))
       (String.split_on_char ';' (Cobra_uarch.Config.spec config)))

let run ?insns ?(config = Cobra_uarch.Config.default) (design : Designs.t)
    (workload : Cobra_workloads.Suite.entry) =
  let insns = match insns with Some n -> n | None -> default_insns () in
  if Cobra_util.Env.(get stats) then begin
    let result, report = run_with_stats ~insns ~config design workload in
    let variant = variant config in
    (try ignore (Cobra_stats.Export.write ~variant ~dir:Cobra_util.Env.(get stats_dir) report)
     with Sys_error _ | Unix.Unix_error _ -> ());
    Cobra_stats.Sink.publish report;
    result
  end
  else begin
    (* stats disabled: the collection machinery is never elaborated *)
    let _pl, core = elaborate ~config design workload in
    let perf = Cobra_uarch.Core.run core ~max_insns:insns in
    { design = design.Designs.name; workload = workload.Cobra_workloads.Suite.name; perf }
  end

(* --- parallel grids ----------------------------------------------------------- *)

type job = {
  job_design : Designs.t;
  job_workload : Cobra_workloads.Suite.entry;
  job_insns : int;
  job_config : Cobra_uarch.Config.t;
}

let job ?insns ?(config = Cobra_uarch.Config.default) design workload =
  let insns = match insns with Some n -> n | None -> default_insns () in
  { job_design = design; job_workload = workload; job_insns = insns; job_config = config }

let job_key j =
  [
    "design:" ^ j.job_design.Designs.name;
    "topology:" ^ Cobra.Topology.spec (j.job_design.Designs.make ());
    "workload:" ^ j.job_workload.Cobra_workloads.Suite.name;
    "config:" ^ Cobra_uarch.Config.spec j.job_config;
    "pipeline:" ^ Cobra.Pipeline.config_spec j.job_design.Designs.pipeline_config;
    "insns:" ^ string_of_int j.job_insns;
  ]

let to_runner_job j =
  {
    Cobra_runner.key = job_key j;
    run =
      (fun () ->
        (run ~insns:j.job_insns ~config:j.job_config j.job_design j.job_workload).perf);
  }

let run_jobs_results ?label jobs =
  let outcomes = Cobra_runner.run_perfs ?label (List.map to_runner_job jobs) in
  List.map2
    (fun j outcome ->
      Result.map
        (fun perf ->
          {
            design = j.job_design.Designs.name;
            workload = j.job_workload.Cobra_workloads.Suite.name;
            perf;
          })
        outcome)
    jobs outcomes

let run_jobs ?label jobs =
  List.map2
    (fun j outcome ->
      match outcome with
      | Ok r -> r
      | Error (e : Cobra_runner.error) ->
        failwith
          (Format.asprintf "Experiment: %s on %s: %a%s" j.job_design.Designs.name
             j.job_workload.Cobra_workloads.Suite.name Cobra_runner.pp_error e
             (if e.Cobra_runner.backtrace = "" then ""
              else "\n" ^ e.Cobra_runner.backtrace)))
    jobs
    (run_jobs_results ?label jobs)

let run_matrix ?insns ?config designs workloads =
  run_jobs ~label:"run_matrix"
    (List.concat_map
       (fun w -> List.map (fun d -> job ?insns ?config d w) designs)
       workloads)

let find_opt results ~design ~workload =
  List.find_opt
    (fun r -> String.equal r.design design && String.equal r.workload workload)
    results

let find results ~design ~workload =
  match find_opt results ~design ~workload with
  | Some r -> r
  | None ->
    failwith
      (Printf.sprintf
         "Experiment.find: no result for design %S on workload %S (have: %s)" design
         workload
         (String.concat ", "
            (List.map (fun r -> Printf.sprintf "%s/%s" r.design r.workload) results)))
