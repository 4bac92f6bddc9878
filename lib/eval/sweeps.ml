open Cobra
open Cobra_components
module Text = Cobra_util.Text_render
module Perf = Cobra_uarch.Perf
module Config = Cobra_uarch.Config

let default_insns () = Experiment.default_insns ()

(* --- sweep rows ---------------------------------------------------------------- *)

(* One grid cell of a sweep: an [Experiment.job] over a design named
   [<sweep>:<row>]. [make] elaborates fresh components, so parallel jobs
   share no mutable state and a retried job restarts clean. The name keys
   the result cache alongside the topology spec, covering knobs the spec
   cannot see (e.g. indexing sources with identical table sizes), so [row]
   must be unique within the sweep's (row, workload) grid. *)
let row_job ~sweep ?insns ?config ?(pipeline_config = Pipeline.default_config) ~row ~workload
    make =
  Experiment.job ?insns ?config
    { Designs.name = sweep ^ ":" ^ row; make; pipeline_config }
    workload

(* A sweep's table rows: one grid of [job_of c] over the cells under the
   runner label [sweep:<sweep>], each row built from its cell and run. *)
let rows ~sweep job_of row cells =
  Experiment.(
    run_jobs ~label:("sweep:" ^ sweep)
      (all (List.map (fun c -> map (fun (r : result) -> row c r.perf) (cell (job_of c))) cells)))

(* --- TAGE storage sweep ------------------------------------------------------- *)

let tage_storage_sweep ?insns () =
  let workload = Cobra_workloads.Suite.find "gcc" in
  let points =
    List.map
      (fun index_bits ->
        let tcfg =
          {
            (Tage.default ~name:"TAGE") with
            Tage.tables =
              List.map
                (fun h -> { Tage.history_length = h; index_bits; tag_bits = 9 })
                [ 4; 6; 10; 16; 26; 42; 64 ];
          }
        in
        (index_bits, tcfg))
      [ 7; 8; 9; 10; 11; 12 ]
  in
  let job (index_bits, tcfg) =
    row_job ~sweep:"tage_storage" ?insns
      ~row:(Printf.sprintf "index_bits=%d" index_bits)
      ~workload
      (fun () ->
        Topology.over (Tage.make tcfg)
          (Topology.over
             (Btb.make (Btb.default ~name:"BTB"))
             (Topology.node (Hbim.make (Hbim.default ~name:"BIM" ~indexing:Indexing.Pc)))))
  in
  let row (index_bits, tcfg) perf =
    [
      Printf.sprintf "2^%d x 7" index_bits;
      Printf.sprintf "%.1f KB" (float_of_int (Tage.storage_bits tcfg) /. 8192.0);
      Text.float_cell ~decimals:2 (100.0 *. Perf.branch_accuracy perf);
      Text.float_cell (Perf.mpki perf);
      Text.float_cell (Perf.ipc perf);
    ]
  in
  let rows = rows ~sweep:"tage_storage" job row points in
  Text.table ~title:"Sweep: TAGE storage budget (gcc-like workload)"
    ~header:[ "entries"; "TAGE KB"; "accuracy%"; "MPKI"; "IPC" ]
    ~rows ()

(* --- uBTB value ------------------------------------------------------------------ *)

let ubtb_value ?insns () =
  let workload = Cobra_workloads.Suite.find "dhrystone" in
  let base_parts () =
    let tage = Tage.make (Tage.default ~name:"TAGE") in
    let btb = Btb.make (Btb.default ~name:"BTB") in
    let bim = Hbim.make (Hbim.default ~name:"BIM" ~indexing:Indexing.Pc) in
    Topology.over tage (Topology.over btb (Topology.node bim))
  in
  let with_ubtb () =
    Topology.over
      (Tage.make (Tage.default ~name:"TAGE"))
      (Topology.over
         (Btb.make (Btb.default ~name:"BTB"))
         (Topology.over
            (Hbim.make (Hbim.default ~name:"BIM" ~indexing:Indexing.Pc))
            (Topology.node (Ubtb.make (Ubtb.default ~name:"UBTB")))))
  in
  let named = [ ("TAGE_3 > BTB_2 > BIM_2", base_parts); ("... > UBTB_1", with_ubtb) ] in
  let rows =
    rows ~sweep:"ubtb_value"
      (fun (name, mk) -> row_job ~sweep:"ubtb_value" ?insns ~row:name ~workload mk)
      (fun (name, _) perf ->
        [
          name;
          Text.float_cell (Perf.ipc perf);
          Text.float_cell ~decimals:2 (100.0 *. Perf.branch_accuracy perf);
          string_of_int perf.Perf.cycles;
        ])
      named
  in
  Text.table
    ~title:"Ablation: 1-cycle uBTB head (dhrystone; taken redirects at Fetch-1 vs Fetch-2)"
    ~header:[ "topology"; "IPC"; "accuracy%"; "cycles" ]
    ~rows ()

(* --- fetch width ------------------------------------------------------------------- *)

let fetch_width_sweep ?insns () =
  let workload = Cobra_workloads.Suite.find "dhrystone" in
  let job w =
    let pipeline_config = { Pipeline.default_config with Pipeline.fetch_width = w } in
    let config = { Config.default with Config.decode_width = w; commit_width = w } in
    row_job ~sweep:"fetch_width" ?insns ~config ~pipeline_config
      ~row:(Printf.sprintf "width=%d" w) ~workload
      (fun () ->
        Topology.over
          (Tage.make { (Tage.default ~name:"TAGE") with Tage.fetch_width = w })
          (Topology.over
             (Btb.make { (Btb.default ~name:"BTB") with Btb.fetch_width = w })
             (Topology.node
                (Hbim.make
                   { (Hbim.default ~name:"BIM" ~indexing:Indexing.Pc) with
                     Hbim.fetch_width = w }))))
  in
  let rows =
    rows ~sweep:"fetch_width" job
      (fun w perf ->
        [ string_of_int w; Text.float_cell (Perf.ipc perf);
          Text.float_cell ~decimals:2 (100.0 *. Perf.branch_accuracy perf) ])
      [ 1; 2; 4; 8 ]
  in
  Text.table ~title:"Sweep: fetch width (superscalar prediction, Section II)"
    ~header:[ "width"; "IPC"; "accuracy%" ]
    ~rows ()

(* --- indexing ---------------------------------------------------------------------- *)

let indexing_ablation ?insns () =
  let workload = Cobra_workloads.Suite.find "correlated" in
  let variants =
    [
      ("pc", Indexing.Pc);
      ("ghist[10]", Indexing.Ghist 10);
      ("hash(pc^ghist[10])", Indexing.Hash [ Indexing.Pc; Indexing.Ghist 10 ]);
    ]
  in
  let rows =
    rows ~sweep:"indexing"
      (fun (name, indexing) ->
        row_job ~sweep:"indexing" ?insns ~row:name ~workload (fun () ->
            Topology.over
              (Hbim.make { (Hbim.default ~name:"BIM" ~indexing) with Hbim.entries = 4096 })
              (Topology.node (Btb.make (Btb.default ~name:"BTB")))))
      (fun (name, _) perf ->
        [ name; Text.float_cell ~decimals:2 (100.0 *. Perf.branch_accuracy perf);
          Text.float_cell (Perf.mpki perf) ])
      variants
  in
  Text.table ~title:"Ablation: HBIM indexing source (correlated kernel, Section III-G1)"
    ~header:[ "indexing"; "accuracy%"; "MPKI" ]
    ~rows ()

(* --- indirect predictor --------------------------------------------------------------- *)

let indirect_predictor ?insns () =
  let tage_l () = Designs.tage_l.Designs.make () in
  let with_ittage ~path () =
    Topology.over
      (Ittage.make { (Ittage.default ~name:"ITTAGE") with Ittage.use_path_history = path })
      (tage_l ())
  in
  let pipeline_config = Designs.tage_l.Designs.pipeline_config in
  let named =
    [
      ("TAGE-L", tage_l);
      ("ITTAGE(ghist) > TAGE-L", with_ittage ~path:false);
      ("ITTAGE(phist) > TAGE-L", with_ittage ~path:true);
    ]
  in
  let cells =
    List.concat_map
      (fun wname ->
        let workload = Cobra_workloads.Suite.find wname in
        List.map (fun (name, mk) -> (wname, name, mk, workload)) named)
      [ "perlbench"; "indirect" ]
  in
  let rows =
    rows ~sweep:"indirect"
      (fun (_, name, mk, workload) ->
        row_job ~sweep:"indirect" ?insns ~pipeline_config ~row:name ~workload mk)
      (fun (wname, name, _, _) perf ->
        [
          wname;
          name;
          Text.float_cell (Perf.ipc perf);
          Text.float_cell ~decimals:2 (100.0 *. Perf.branch_accuracy perf);
          Text.float_cell (Perf.mpki perf);
        ])
      cells
  in
  Text.table
    ~title:
      "Extension: ITTAGE indirect-target predictor, direction- vs path-history indexed \
       (paper IV-B3 invites path-history providers)"
    ~header:[ "workload"; "topology"; "IPC"; "accuracy%"; "MPKI" ]
    ~rows ()

(* --- statistical corrector ---------------------------------------------------------------- *)

let statistical_corrector_value ?insns () =
  let workloads = List.map Cobra_workloads.Suite.find [ "gcc"; "leela"; "xz" ] in
  let pipeline_config = Designs.tage_l.Designs.pipeline_config in
  let tage_l () = Designs.tage_l.Designs.make () in
  let with_sc () =
    Topology.over
      (Statistical_corrector.make (Statistical_corrector.default ~name:"SC"))
      (tage_l ())
  in
  let named = [ ("TAGE-L", tage_l); ("SC_3 > TAGE-L", with_sc) ] in
  let cells =
    List.concat_map (fun w -> List.map (fun (name, mk) -> (w, name, mk)) named) workloads
  in
  let rows =
    rows ~sweep:"statistical_corrector"
      (fun (w, name, mk) ->
        row_job ~sweep:"statistical_corrector" ?insns ~pipeline_config ~row:name ~workload:w mk)
      (fun ((w : Cobra_workloads.Suite.entry), name, _) perf ->
        [
          w.Cobra_workloads.Suite.name;
          name;
          Text.float_cell ~decimals:2 (100.0 *. Perf.branch_accuracy perf);
          Text.float_cell (Perf.mpki perf);
          Text.float_cell (Perf.ipc perf);
        ])
      cells
  in
  Text.table
    ~title:"Extension: statistical corrector over TAGE-L (towards full TAGE-SC-L)"
    ~header:[ "workload"; "topology"; "accuracy%"; "MPKI"; "IPC" ]
    ~rows ()

(* --- CBP-family head-to-head ----------------------------------------------------------------- *)

let gehl_vs_tage ?insns () =
  let workload = Cobra_workloads.Suite.find "gcc" in
  let over_btb c =
    Topology.over c
      (Topology.over
         (Btb.make (Btb.default ~name:"BTB"))
         (Topology.node (Hbim.make (Hbim.default ~name:"BIM" ~indexing:Indexing.Pc))))
  in
  let contenders =
    [
      ( "GSHARE_2",
        fun () ->
          Hbim.make
            {
              (Hbim.default ~name:"GSHARE" ~indexing:Indexing.(Hash [ Pc; Ghist 12 ])) with
              entries = 4096;
            } );
      ("YAGS_2", fun () -> Yags.make (Yags.default ~name:"YAGS"));
      ("PERCEPTRON_3", fun () -> Perceptron.make (Perceptron.default ~name:"PERC"));
      ("GEHL_3", fun () -> Gehl.make (Gehl.default ~name:"GEHL"));
      ("TAGE_3", fun () -> Tage.make (Tage.default ~name:"TAGE"));
    ]
  in
  let rows =
    rows ~sweep:"cbp_families"
      (fun (name, mk) ->
        row_job ~sweep:"cbp_families" ?insns ~row:name ~workload (fun () -> over_btb (mk ())))
      (fun (name, mk) perf ->
        let c = mk () in
        let kb = Cobra.Storage.kilobytes c.Cobra.Component.storage in
        [
          name ^ " > BTB_2 > BIM_2";
          Printf.sprintf "%.1f KB" kb;
          Text.float_cell ~decimals:2 (100.0 *. Perf.branch_accuracy perf);
          Text.float_cell (Perf.mpki perf);
          Text.float_cell (Perf.ipc perf);
        ])
      contenders
  in
  Text.table
    ~title:"Extension: CBP-era predictor families head-to-head (gcc-like workload)"
    ~header:[ "topology"; "dir state"; "accuracy%"; "MPKI"; "IPC" ]
    ~rows ()

(* --- core size --------------------------------------------------------------------------- *)

let core_size ?insns () =
  let workload = Cobra_workloads.Suite.find "gcc" in
  let sizes =
    [
      ( "small (1-wide, 32 ROB)",
        1,
        {
          Config.default with
          Config.decode_width = 1;
          commit_width = 1;
          rob_entries = 32;
          int_alus = 1;
          mem_ports = 1;
          fp_units = 1;
          fetch_buffer = 8;
        } );
      ("paper (4-wide, 128 ROB)", 4, Config.default);
      ( "mega (8-wide, 256 ROB)",
        8,
        {
          Config.default with
          Config.decode_width = 8;
          commit_width = 8;
          rob_entries = 256;
          int_alus = 8;
          mem_ports = 4;
          fp_units = 4;
          fetch_buffer = 64;
        } );
    ]
  in
  (* B2's and TAGE-L's components rebuilt at the core's fetch width *)
  let b2_at fw () =
    Topology.over
      (Gtag.make { (Gtag.default ~name:"GTAG") with Gtag.fetch_width = fw })
      (Topology.over
         (Btb.make { (Btb.default ~name:"BTB") with Btb.fetch_width = fw })
         (Topology.node
            (Hbim.make
               { (Hbim.default ~name:"BIM" ~indexing:Indexing.Pc) with Hbim.fetch_width = fw })))
  in
  let tage_l_at fw () =
    Topology.over
      (Tage.make { (Tage.default ~name:"TAGE") with Tage.fetch_width = fw })
      (Topology.over
         (Btb.make { (Btb.default ~name:"BTB") with Btb.fetch_width = fw })
         (Topology.over
            (Hbim.make
               { (Hbim.default ~name:"BIM" ~indexing:Indexing.Pc) with Hbim.fetch_width = fw })
            (Topology.node
               (Ubtb.make { (Ubtb.default ~name:"UBTB") with Ubtb.fetch_width = fw }))))
  in
  let row (size_name, fw, config) =
    let ipc design make =
      Experiment.map
        (fun (r : Experiment.result) -> Perf.ipc r.Experiment.perf)
        (Experiment.cell
           (row_job ~sweep:"core_size" ?insns ~config
              ~pipeline_config:{ Pipeline.default_config with Pipeline.fetch_width = fw }
              ~row:(Printf.sprintf "%s/%s" size_name design)
              ~workload (make fw)))
    in
    Experiment.map
      (fun (b2, tage) ->
        [
          size_name;
          Text.float_cell b2;
          Text.float_cell tage;
          Printf.sprintf "%+.1f%%" (100.0 *. (tage -. b2) /. Float.max 1e-9 b2);
        ])
      (Experiment.pair (ipc "B2" b2_at) (ipc "TAGE-L" tage_l_at))
  in
  Text.table
    ~title:"Sweep: host-core size (TAGE-class vs B2-class prediction, gcc-like workload)"
    ~header:[ "core"; "IPC (B2-like)"; "IPC (TAGE-like)"; "TAGE gain" ]
    ~rows:(Experiment.run_jobs ~label:"sweep:core_size" (Experiment.all (List.map row sizes)))
    ()

(* --- RAS repair ------------------------------------------------------------------------ *)

let ras_repair ?insns () =
  let workloads = List.map Cobra_workloads.Suite.find [ "xalancbmk"; "deepsjeng" ] in
  let cells =
    List.concat_map (fun w -> List.map (fun repair -> (w, repair)) [ false; true ]) workloads
  in
  let rows =
    rows ~sweep:"ras_repair"
      (fun (w, repair) ->
        let config = { Config.default with Config.ras_repair = repair } in
        Experiment.job ?insns ~config Designs.tage_l w)
      (fun ((w : Cobra_workloads.Suite.entry), repair) perf ->
        [
          w.Cobra_workloads.Suite.name;
          (if repair then "checkpointed" else "no repair");
          Text.float_cell (Perf.ipc perf);
          Text.float_cell ~decimals:2 (100.0 *. Perf.branch_accuracy perf);
          string_of_int perf.Perf.mispredicts;
        ])
      cells
  in
  Text.table ~title:"Extension: RAS checkpoint repair on flushes (call-heavy workloads)"
    ~header:[ "workload"; "RAS"; "IPC"; "accuracy%"; "mispredicts" ]
    ~rows ()

(* --- per-design attribution summary (Cobra_stats) ----------------------------- *)

let attribution ?insns () =
  let insns = Option.value insns ~default:(default_insns ()) in
  let workload = Cobra_workloads.Suite.find "gcc" in
  let rows =
    List.concat_map
      (fun ((r : Experiment.result), report) ->
        let total = report.Cobra_stats.Report.total_mispredicts in
        let first = ref true in
        List.map
          (fun (bucket, n) ->
            let name = if !first then r.Experiment.design else "" in
            let tot = if !first then string_of_int total else "" in
            first := false;
            [
              name;
              tot;
              bucket;
              string_of_int n;
              (if total = 0 then "0.0%"
               else Printf.sprintf "%.1f%%" (100.0 *. float_of_int n /. float_of_int total));
            ])
          report.Cobra_stats.Report.buckets)
      (Experiment.run_with_stats_all ~label:"attribution" ~insns Designs.all workload)
  in
  Text.table
    ~title:
      (Printf.sprintf
         "Mispredict attribution per composed design on gcc (%d insns): which \
          sub-component caused each flush"
         insns)
    ~header:[ "design"; "total"; "bucket"; "caused"; "share" ]
    ~rows ()

type t = { name : string; run : ?insns:int -> unit -> string }

let all =
  [
    { name = "storage"; run = tage_storage_sweep };
    { name = "ubtb"; run = ubtb_value };
    { name = "fetch-width"; run = fetch_width_sweep };
    { name = "indexing"; run = indexing_ablation };
    { name = "ittage"; run = indirect_predictor };
    { name = "ras"; run = ras_repair };
    { name = "sc"; run = statistical_corrector_value };
    { name = "core-size"; run = core_size };
    { name = "families"; run = gehl_vs_tage };
    { name = "attribution"; run = attribution };
  ]
