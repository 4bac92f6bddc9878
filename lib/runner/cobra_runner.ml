module Pool = Pool
module Cache = Cache
module Progress = Progress

type error = Pool.error = {
  job : int;
  attempts : int;
  message : string;
  backtrace : string;
}

let pp_error ppf e =
  Format.fprintf ppf "job %d failed after %d attempt%s: %s" e.job e.attempts
    (if e.attempts = 1 then "" else "s")
    e.message

type job = {
  key : string list;
  run : unit -> Cobra_uarch.Perf.t * Cobra_stats.Report.t option;
}

(* A failing job gets one retry. *)
let attempts = 2

(* The pool, reporting each job's start, retries and finish to [progress]:
   [key i] is what job [i]'s events print as its key, and [cached.(i)]
   whether its result came from the cache. *)
let map_reporting progress ~key ~cached thunks =
  let started = Array.make (Array.length cached) 0.0 in
  let on_start i =
    started.(i) <- Unix.gettimeofday ();
    Progress.emit progress (Progress.Start { job = i; key = key i })
  in
  let on_retry i ~attempt exn =
    (* a failed attempt may have left a partial thunk state; the job rebuilds
       everything, but make sure a retry never reuses a half-written entry *)
    cached.(i) <- false;
    Progress.emit progress
      (Progress.Retry { job = i; attempt; message = Printexc.to_string exn })
  in
  let on_finish i ~ok =
    Progress.emit progress
      (Progress.Finish
         {
           job = i;
           ok;
           cached = cached.(i);
           elapsed = Unix.gettimeofday () -. started.(i);
         })
  in
  Pool.map ~attempts ~on_start ~on_retry ~on_finish thunks

let run_perfs ?(label = "runner") ?progress specs =
  let n = List.length specs in
  let arr = Array.of_list specs in
  let owned = Option.is_none progress in
  let progress =
    match progress with
    | Some p -> p
    | None -> Progress.create ~label ~total:n ()
  in
  let use_cache = Cache.enabled () in
  (* a job exports its statistics report (COBRA_STATS) as it runs, so
     while reports are on, a cached result must not stand in for the run *)
  let consult = use_cache && not Cobra_util.Env.(get stats) in
  let keys = Array.map (fun j -> Cache.key j.key) arr in
  let cached = Array.make n false in
  let thunk i () =
    let j = arr.(i) in
    let k = keys.(i) in
    match if consult then Cache.load k else None with
    | Some perf ->
      cached.(i) <- true;
      Progress.emit progress (Progress.Cache_hit { job = i; key = Cache.hex k });
      perf
    | None ->
      let perf, report = j.run () in
      Option.iter
        (fun r ->
          Progress.emit progress
            (Progress.Stats
               {
                 design = r.Cobra_stats.Report.design;
                 workload = r.Cobra_stats.Report.workload;
                 summary = Cobra_stats.Report.summary r;
               }))
        report;
      (if use_cache then
         match Cache.store k perf with
         | Ok () -> ()
         | Error message ->
           Progress.emit progress
             (Progress.Store_error { job = i; key = Cache.hex k; message }));
      perf
  in
  let results =
    map_reporting progress ~key:(fun i -> Cache.hex keys.(i)) ~cached (List.init n thunk)
  in
  if owned then Progress.finish progress;
  results

let run_uncached ?(label = "runner") thunks =
  let n = List.length thunks in
  let progress = Progress.create ~label ~total:n () in
  let results = map_reporting progress ~key:(fun _ -> "") ~cached:(Array.make n false) thunks in
  Progress.finish progress;
  results
