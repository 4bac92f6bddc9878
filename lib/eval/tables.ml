module Text = Cobra_util.Text_render

let table_1 () =
  let rows =
    List.concat_map
      (fun (d : Designs.t) ->
        let pl = Designs.pipeline d in
        let total_kb = Cobra.Storage.kilobytes (Cobra.Pipeline.storage pl) in
        let first = ref true in
        List.map
          (fun row ->
            let name = if !first then d.Designs.name else "" in
            let paper = if !first then Printf.sprintf "%.1f KB" d.Designs.paper_storage_kb else "" in
            let dir =
              if !first then Printf.sprintf "%.1f KB" (Designs.direction_state_kb d) else ""
            in
            let total = if !first then Printf.sprintf "%.1f KB" total_kb else "" in
            first := false;
            [ name; row; paper; dir; total ])
          d.Designs.paper_rows)
      Designs.all
  in
  Text.table ~title:"Table I: parameters of evaluated COBRA-designed predictors"
    ~header:
      [ "Predictor"; "Description"; "Paper storage"; "Ours (dir state)"; "Ours (total)" ]
    ~rows ()

let table_2 () =
  Text.table ~title:"Table II: core configuration"
    ~header:[ "Unit"; "Configuration" ]
    ~rows:(List.map (fun (a, b) -> [ a; b ]) (Cobra_uarch.Config.rows Cobra_uarch.Config.default))
    ()

let table_3 () =
  Text.table ~title:"Table III: evaluated systems for SPECint17 comparison"
    ~header:[ "Core"; "Intel Skylake"; "AWS Graviton"; "BOOM model (this repo)" ]
    ~rows:
      [
        [ "Branch predictor"; "Undisclosed"; "Undisclosed"; "Tourney / B2 / TAGE-L" ];
        [ "L1 cache sizes (I/D)"; "64/64 KB"; "48/32 KB"; "32/32 KB" ];
        [ "L2/L3 cache size"; "1 MB/24 MB"; "2 MB/0 MB"; "512 KB/4 MB" ];
        [ "Workloads"; "native SPECint17"; "native SPECint17"; "BRISC SPEC-like kernels" ];
        [
          "Platform";
          "AWS EC2 bare-metal (paper)";
          "AWS EC2 bare-metal (paper)";
          "cycle-level core model";
        ];
        [ "Numbers"; "paper Fig 10 read-offs"; "paper Fig 10 read-offs"; "measured here" ];
      ]
    ()

(* --- per-component mispredict attribution (the Cobra_stats tentpole) ------ *)

let pct ~total n =
  if total = 0 then "0.0%"
  else Printf.sprintf "%.1f%%" (100.0 *. float_of_int n /. float_of_int total)

let table_attribution ?insns () =
  let design = "Tourney" and workload = "gcc" in
  let d = Designs.find design in
  let w = Cobra_workloads.Suite.find workload in
  let result, report = Experiment.run_with_stats ?insns d w in
  let total = report.Cobra_stats.Report.total_mispredicts in
  let comp_rows =
    List.map
      (fun (r : Cobra_stats.Report.component_row) ->
        [
          r.Cobra_stats.Report.cr_name;
          string_of_int r.Cobra_stats.Report.cr_caused;
          pct ~total r.Cobra_stats.Report.cr_caused;
          string_of_int r.Cobra_stats.Report.cr_saved;
        ])
      report.Cobra_stats.Report.components
  in
  let pseudo_rows =
    report.Cobra_stats.Report.buckets
    |> List.filter (fun (k, _) ->
           not
             (List.exists
                (fun (r : Cobra_stats.Report.component_row) ->
                  r.Cobra_stats.Report.cr_name = k)
                report.Cobra_stats.Report.components))
    |> List.map (fun (k, n) -> [ k; string_of_int n; pct ~total n; "-" ])
  in
  let main =
    Text.table
      ~title:
        (Printf.sprintf
           "Per-component mispredict attribution: %s on %s (%d mispredicts over %d insns)"
           design workload total result.perf.Cobra_uarch.Perf.instructions)
      ~header:[ "component"; "caused"; "share"; "saved" ]
      ~rows:(comp_rows @ pseudo_rows) ()
  in
  let arb =
    match report.Cobra_stats.Report.arbitrations with
    | [] -> ""
    | arbs ->
      let rows =
        List.concat_map
          (fun (a : Cobra_stats.Report.arb_row) ->
            List.map
              (fun (s : Cobra_stats.Report.arb_sub_row) ->
                [
                  a.Cobra_stats.Report.ar_selector;
                  s.Cobra_stats.Report.as_name;
                  string_of_int s.Cobra_stats.Report.as_won;
                  string_of_int s.Cobra_stats.Report.as_won_right;
                  string_of_int s.Cobra_stats.Report.as_won_wrong;
                  string_of_int s.Cobra_stats.Report.as_right;
                  string_of_int s.Cobra_stats.Report.as_wrong;
                ])
              a.Cobra_stats.Report.ar_subs)
          arbs
      in
      "\n"
      ^ Text.table ~title:"Arbitration: who won, who was right (conditional decisions)"
          ~header:[ "selector"; "sub"; "won"; "won right"; "won wrong"; "right"; "wrong" ]
          ~rows ()
  in
  main ^ arb
