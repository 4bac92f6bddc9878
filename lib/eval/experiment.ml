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
  let report =
    Cobra_stats.Collector.report coll ~insns:perf.Cobra_uarch.Perf.instructions
      ~cycles:perf.Cobra_uarch.Perf.cycles ~mispredicts:perf.Cobra_uarch.Perf.mispredicts
      ~design:design.Designs.name ~workload:workload.Cobra_workloads.Suite.name
      ~perf:(Cobra_uarch.Perf.counters perf)
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

(* A run with COBRA_STATS on: collect, export to COBRA_STATS_DIR (an
   export that fails raises) and hand the report back. *)
let run_exported ~insns ~config design workload =
  let result, report = run_with_stats ~insns ~config design workload in
  Cobra_stats.Export.write ~variant:(variant config) ~dir:Cobra_util.Env.(get stats_dir) report;
  (result, report)

let run ?insns ?(config = Cobra_uarch.Config.default) (design : Designs.t)
    (workload : Cobra_workloads.Suite.entry) =
  let insns = match insns with Some n -> n | None -> default_insns () in
  if Cobra_util.Env.(get stats) then fst (run_exported ~insns ~config design workload)
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
        let insns = j.job_insns and config = j.job_config in
        if Cobra_util.Env.(get stats) then
          let result, report = run_exported ~insns ~config j.job_design j.job_workload in
          (result.perf, Some report)
        else ((run ~insns ~config j.job_design j.job_workload).perf, None));
  }

(* A grid is its jobs in submission order and how to build its value from
   the results, read from [base] on: each cell reads its own slot, so no
   caller pairs cells with results by hand. *)
type 'a grid = { jobs : job list; read : result array -> int -> 'a }

let cell j = { jobs = [ j ]; read = (fun results base -> results.(base)) }
let map f g = { g with read = (fun results base -> f (g.read results base)) }

let pair a b =
  let n = List.length a.jobs in
  { jobs = a.jobs @ b.jobs; read = (fun rs base -> (a.read rs base, b.read rs (base + n))) }

let all gs =
  {
    jobs = List.concat_map (fun g -> g.jobs) gs;
    read =
      (fun rs base ->
        snd (List.fold_left_map (fun i g -> (i + List.length g.jobs, g.read rs i)) base gs));
  }

let failed (design : Designs.t) (workload : Cobra_workloads.Suite.entry)
    (e : Cobra_runner.error) =
  failwith
    (Format.asprintf "Experiment: %s on %s: %a%s" design.Designs.name
       workload.Cobra_workloads.Suite.name Cobra_runner.pp_error e
       (if e.Cobra_runner.backtrace = "" then "" else "\n" ^ e.Cobra_runner.backtrace))

let run_jobs ?label g =
  let outcomes = Cobra_runner.run_perfs ?label (List.map to_runner_job g.jobs) in
  let results =
    List.map2
      (fun j outcome ->
        match outcome with
        | Ok perf ->
          {
            design = j.job_design.Designs.name;
            workload = j.job_workload.Cobra_workloads.Suite.name;
            perf;
          }
        | Error e -> failed j.job_design j.job_workload e)
      g.jobs outcomes
  in
  g.read (Array.of_list results) 0

let run_with_stats_all ?label ?insns designs workload =
  List.map2
    (fun d -> function Ok run -> run | Error e -> failed d workload e)
    designs
    (Cobra_runner.run_uncached ?label
       (List.map (fun d () -> run_with_stats ?insns d workload) designs))

let run_matrix ?insns ?config designs workloads =
  run_jobs ~label:"run_matrix"
    (all
       (List.concat_map
          (fun w -> List.map (fun d -> cell (job ?insns ?config d w)) designs)
          workloads))

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
