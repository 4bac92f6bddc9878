module Btrace = Cobra_trace_replay.Btrace
module Replay = Cobra_trace_replay.Replay
module Json = Cobra_stats.Json
module Interval = Cobra_stats.Interval

(* Accuracy below this is "collapsed" — the falling-edge detector; a level
   at or above it still "holds". Probes are engineered so ideal responses
   sit near 1.0 or near 0.5, far from the threshold on both sides. *)
let collapse_threshold = 0.90

(* Rising-edge bar (phase probe): 1 - 2/16 = 0.875 must fail it and
   1 - 2/32 = 0.9375 must clear it, so it sits between. *)
let rising_threshold = 0.89

type measurement = {
  m_level : int;
  m_samples : int;
  m_misses : int;
  m_accuracy : float;
  m_model : float option;  (** expected accuracy when the model is exact *)
}

type verdict = Pass | Fail of string | Info

type result = {
  r_target : string;
  r_family : string;
  r_probe : string;
  r_unit : string;
  r_expect : Target.expect;
  r_series : measurement list;
  r_verdict : verdict;
}

type report = {
  rep_seed : int;
  rep_elapsed_s : float;
  rep_results : result list;
}

(* ---- measurement ------------------------------------------------------- *)

let measure ~(target : Target.t) ~(probe : Pattern.t) ~level ~seed =
  let stream = probe.Pattern.p_gen ~level ~seed in
  let pl = Target.pipeline target in
  let idx = ref 0 in
  let samples = ref 0 and misses = ref 0 in
  let observe (r : Btrace.record) ~taken_pred:_ ~wrong =
    let i = !idx in
    incr idx;
    if
      i >= stream.Pattern.s_warmup
      && (match stream.Pattern.s_metric_pc with
         | None -> true
         | Some pc -> r.Btrace.b_pc = pc)
    then begin
      incr samples;
      if wrong then incr misses
    end
  in
  let (_ : Replay.result) =
    Replay.drive ~observe ~design:target.Target.t_name
      ~trace:(Printf.sprintf "probe:%s@%d" probe.Pattern.p_name level)
      (Replay.Sim.of_pipeline pl) (Pattern.source stream)
  in
  let s = !samples and m = !misses in
  {
    m_level = level;
    m_samples = s;
    m_misses = m;
    m_accuracy = (if s = 0 then 1.0 else 1.0 -. (float_of_int m /. float_of_int s));
    m_model = None;
  }

(* ---- level grids ------------------------------------------------------- *)

let min_level probe_name =
  match probe_name with "ladder" | "corr" -> 1 | _ -> 2

let dedup_sorted levels =
  List.sort_uniq compare (List.filter (fun l -> l >= 1) levels)

(* A falling-edge grid brackets the predicted edge: one easy level, the
   last holding level and the first collapsing one. *)
let edge_grid ~probe_name e =
  dedup_sorted [ max (min_level probe_name) (e / 2); e - 1; e ]

(* Bracket the envelope: a level comfortably inside, the last level that
   must hold (lo), the first expected collapse point just past it, and the
   far bound. *)
let envelope_grid ~lo ~hi =
  dedup_sorted [ max 2 (lo / 2); lo; lo + max 4 (lo / 8); hi ]

(* Unmodelled pairs still get measured (the report is a fidelity *map*, not
   only a gate): a small characteristic grid per probe. *)
let info_grid probe_name =
  match probe_name with
  | "ladder" -> [ 2; 4; 6 ]
  | "corr" -> [ 2; 4; 8 ]
  | "loop" -> [ 4; 16 ]
  | "phase" -> [ 8; 32 ]
  | "alias" -> [ 16; 64 ]
  | "tag" -> [ 16; 64 ]
  | _ -> [ 2; 4 ]

let grid ~probe_name (e : Target.expect) =
  match e with
  | Target.Edge e -> edge_grid ~probe_name e
  | Target.Zero_miss e -> edge_grid ~probe_name e
  | Target.Rising _ -> Target.phase_grid
  | Target.Curve { levels; _ } -> dedup_sorted levels
  | Target.Envelope { lo; hi } -> envelope_grid ~lo ~hi
  | Target.Flat _ -> info_grid probe_name
  | Target.Informational -> info_grid probe_name

(* ---- verdicts ---------------------------------------------------------- *)

let first_opt p l = List.find_opt p l |> Option.map (fun m -> m.m_level)

let judge (e : Target.expect) series =
  let measured_edge =
    first_opt (fun m -> m.m_accuracy < collapse_threshold) series
  in
  match e with
  | Target.Informational -> Info
  | Target.Edge predicted -> (
    match measured_edge with
    | Some m when m = predicted -> Pass
    | Some m ->
      Fail (Printf.sprintf "capacity edge at level %d, predicted %d" m predicted)
    | None ->
      Fail (Printf.sprintf "no collapse within grid, predicted edge %d" predicted))
  | Target.Zero_miss predicted -> (
    match first_opt (fun m -> m.m_misses > 0) series with
    | Some m when m = predicted -> Pass
    | Some m ->
      Fail (Printf.sprintf "first mispredicts at level %d, predicted %d" m predicted)
    | None ->
      Fail (Printf.sprintf "zero misses everywhere, predicted onset %d" predicted))
  | Target.Rising predicted -> (
    match first_opt (fun m -> m.m_accuracy >= rising_threshold) series with
    | Some m when m = predicted -> Pass
    | Some m ->
      Fail (Printf.sprintf "recovers at level %d, predicted %d" m predicted)
    | None ->
      Fail (Printf.sprintf "never recovers within grid, predicted %d" predicted))
  | Target.Curve { model; tol; _ } -> (
    let off =
      List.find_opt
        (fun m -> Float.abs (m.m_accuracy -. model m.m_level) > tol)
        series
    in
    match off with
    | None -> Pass
    | Some m ->
      Fail
        (Printf.sprintf "level %d: measured %.4f, model %.4f (tol %.3f)" m.m_level
           m.m_accuracy (model m.m_level) tol))
  | Target.Envelope { lo; hi } -> (
    match measured_edge with
    | Some m when lo < m && m <= hi -> Pass
    | Some m -> Fail (Printf.sprintf "capacity edge %d outside (%d, %d]" m lo hi)
    | None -> Fail (Printf.sprintf "no collapse within grid, envelope (%d, %d]" lo hi))
  | Target.Flat { acc; tol } -> (
    let off =
      List.find_opt (fun m -> Float.abs (m.m_accuracy -. acc) > tol) series
    in
    match off with
    | None -> Pass
    | Some m ->
      Fail
        (Printf.sprintf "level %d: measured %.4f, expected flat %.3f±%.3f" m.m_level
           m.m_accuracy acc tol))

let annotate (e : Target.expect) m =
  match e with
  | Target.Curve { model; _ } -> { m with m_model = Some (model m.m_level) }
  | Target.Flat { acc; _ } -> { m with m_model = Some acc }
  | _ -> m

let run_pair ~(target : Target.t) ~(probe : Pattern.t) ~seed =
  let e = target.Target.t_expect probe.Pattern.p_name in
  let levels = grid ~probe_name:probe.Pattern.p_name e in
  let series =
    List.map (fun level -> annotate e (measure ~target ~probe ~level ~seed)) levels
  in
  {
    r_target = target.Target.t_name;
    r_family = target.Target.t_family;
    r_probe = probe.Pattern.p_name;
    r_unit = probe.Pattern.p_unit;
    r_expect = e;
    r_series = series;
    r_verdict = judge e series;
  }

let run_matrix ?(targets = Target.all) ?(probes = Pattern.all) ~seed () =
  let t0 = Unix.gettimeofday () in
  let results =
    List.concat_map
      (fun target -> List.map (fun probe -> run_pair ~target ~probe ~seed) probes)
      targets
  in
  { rep_seed = seed; rep_elapsed_s = Unix.gettimeofday () -. t0; rep_results = results }

let failures report =
  List.filter (fun r -> match r.r_verdict with Fail _ -> true | _ -> false)
    report.rep_results

(* ---- rendering --------------------------------------------------------- *)

let expect_json (e : Target.expect) =
  match e with
  | Target.Edge l -> Json.Obj [ ("kind", Json.String "edge"); ("level", Json.Int l) ]
  | Target.Zero_miss l ->
    Json.Obj [ ("kind", Json.String "zero-miss"); ("level", Json.Int l) ]
  | Target.Rising l -> Json.Obj [ ("kind", Json.String "rising"); ("level", Json.Int l) ]
  | Target.Curve { tol; _ } ->
    Json.Obj [ ("kind", Json.String "curve"); ("tol", Json.Float tol) ]
  | Target.Envelope { lo; hi } ->
    Json.Obj [ ("kind", Json.String "envelope"); ("lo", Json.Int lo); ("hi", Json.Int hi) ]
  | Target.Flat { acc; tol } ->
    Json.Obj [ ("kind", Json.String "flat"); ("acc", Json.Float acc); ("tol", Json.Float tol) ]
  | Target.Informational -> Json.Obj [ ("kind", Json.String "informational") ]

let verdict_string = function Pass -> "pass" | Fail _ -> "fail" | Info -> "info"

let measurement_json m =
  Json.Obj
    ([
       ("level", Json.Int m.m_level);
       ("samples", Json.Int m.m_samples);
       ("misses", Json.Int m.m_misses);
       ("accuracy", Json.Float m.m_accuracy);
     ]
    @ match m.m_model with None -> [] | Some f -> [ ("model", Json.Float f) ])

let result_json r =
  Json.Obj
    ([
       ("target", Json.String r.r_target);
       ("family", Json.String r.r_family);
       ("probe", Json.String r.r_probe);
       ("unit", Json.String r.r_unit);
       ("expect", expect_json r.r_expect);
       ("series", Json.List (List.map measurement_json r.r_series));
       ("verdict", Json.String (verdict_string r.r_verdict));
     ]
    @ match r.r_verdict with Fail d -> [ ("detail", Json.String d) ] | _ -> [])

let report_json rep =
  Json.Obj
    [
      ("schema", Json.String "cobra-probe-report/1");
      ("seed", Json.Int rep.rep_seed);
      ("elapsed_s", Json.Float rep.rep_elapsed_s);
      ("targets", Json.Int (List.length (List.sort_uniq compare (List.map (fun r -> r.r_target) rep.rep_results))));
      ("failures", Json.Int (List.length (failures rep)));
      ("results", Json.List (List.map result_json rep.rep_results));
    ]

let report_csv rep =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "target,family,probe,unit,level,samples,misses,accuracy,model,verdict\n";
  List.iter
    (fun r ->
      List.iter
        (fun m ->
          Buffer.add_string buf
            (Printf.sprintf "%s,%s,%s,%s,%d,%d,%d,%.6f,%s,%s\n" r.r_target r.r_family
               r.r_probe r.r_unit m.m_level m.m_samples m.m_misses m.m_accuracy
               (match m.m_model with None -> "" | Some f -> Printf.sprintf "%.6f" f)
               (verdict_string r.r_verdict)))
        r.r_series)
    rep.rep_results;
  Buffer.contents buf

let render rep =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "cobra probe fidelity report (seed 0x%04x, %.1fs)\n" rep.rep_seed
       rep.rep_elapsed_s);
  List.iter
    (fun r ->
      let series =
        String.concat " "
          (List.map
             (fun m -> Printf.sprintf "%d:%.3f" m.m_level m.m_accuracy)
             r.r_series)
      in
      let tail = match r.r_verdict with Fail d -> "  <- " ^ d | _ -> "" in
      Buffer.add_string buf
        (Printf.sprintf "  %-16s %-6s [%s]  %s%s\n" r.r_target r.r_probe
           (verdict_string r.r_verdict) series tail))
    rep.rep_results;
  let fails = failures rep in
  Buffer.add_string buf
    (if fails = [] then "  all modelled responses within theory\n"
     else Printf.sprintf "  %d fidelity failure(s)\n" (List.length fails));
  Buffer.contents buf

(* ---- mispredict-timing series ------------------------------------------ *)

(* Replay has no cycle model; the probe timing export synthesises one
   (1 cycle per instruction plus a fixed flush penalty per mispredict) so
   the Interval machinery can localise *where* in the stream a probe hurts
   — the phase storm shows bucketed misery at flip boundaries, the ladder a
   uniform stripe. *)
let timing_series ?(width = 128) ?(penalty = 20) ~(target : Target.t)
    ~(probe : Pattern.t) ~level ~seed () =
  let stream = probe.Pattern.p_gen ~level ~seed in
  let pl = Target.pipeline target in
  let iv = Interval.create ~width () in
  let insns = ref 0 and mis = ref 0 in
  let gap_hist = Array.make 16 0 in
  let last_mis = ref 0 in
  let observe (r : Btrace.record) ~taken_pred:_ ~wrong =
    insns := !insns + r.Btrace.b_gap + 1;
    if wrong then begin
      incr mis;
      let gap = !insns - !last_mis in
      let bucket = min 15 (if gap <= 0 then 0 else int_of_float (Float.log2 (float_of_int gap))) in
      gap_hist.(bucket) <- gap_hist.(bucket) + 1;
      last_mis := !insns
    end;
    Interval.sample iv ~insns:!insns ~cycles:(!insns + (penalty * !mis)) ~mispredicts:!mis
  in
  let (_ : Replay.result) =
    Replay.drive ~observe ~design:target.Target.t_name
      ~trace:(Printf.sprintf "probe:%s@%d" probe.Pattern.p_name level)
      (Replay.Sim.of_pipeline pl) (Pattern.source stream)
  in
  Interval.flush iv ~insns:!insns ~cycles:(!insns + (penalty * !mis)) ~mispredicts:!mis;
  Json.Obj
    [
      ("schema", Json.String "cobra-probe-timing/1");
      ("target", Json.String target.Target.t_name);
      ("probe", Json.String probe.Pattern.p_name);
      ("level", Json.Int level);
      ("seed", Json.Int seed);
      ("penalty", Json.Int penalty);
      ("insns", Json.Int !insns);
      ("mispredicts", Json.Int !mis);
      ( "mispredict_gap_log2_hist",
        Json.List (Array.to_list (Array.map (fun c -> Json.Int c) gap_hist)) );
      ("points", Json.List (List.map Interval.point_to_json (Interval.points iv)));
    ]

(* ---- cobra serve op ---------------------------------------------------- *)

(* {"op": "probe", "probes": [..], "targets": [..], "seed": N} — one
   "probe" event per target/probe pair plus a "probe-summary"; omitted or
   empty lists mean the full catalogue. Registered through
   [Serve.config.extra_ops] by the CLI (and by tests), which keeps
   cobra_trace_replay free of a probe dependency. *)
let serve_op cfg send ?id req =
  let module Serve = Cobra_trace_replay.Serve in
  let names field req =
    List.filter_map Json.to_str (Json.list_member field req)
  in
  let pick finder all = function [] -> all | names -> List.map finder names in
  let probes =
    pick
      (fun n -> match Pattern.find n with Ok p -> p | Error m -> failwith m)
      Pattern.all (names "probes" req)
  in
  let targets =
    pick
      (fun n -> match Target.find n with Ok t -> t | Error m -> failwith m)
      Target.all (names "targets" req)
  in
  let seed = Json.int_member "seed" req ~default:0x0b5a in
  let rep = run_matrix ~targets ~probes ~seed () in
  List.iter
    (fun r ->
      match result_json r with
      | Json.Obj fields -> Serve.emit_event cfg send ?id ~event:"probe" fields
      | j -> Serve.emit_event cfg send ?id ~event:"probe" [ ("result", j) ])
    rep.rep_results;
  Serve.emit_event cfg send ?id ~event:"probe-summary"
    [
      ("seed", Json.Int rep.rep_seed);
      ("results", Json.Int (List.length rep.rep_results));
      ("failures", Json.Int (List.length (failures rep)));
      ("elapsed_s", Json.Float rep.rep_elapsed_s);
    ]
