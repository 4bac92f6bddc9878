open Cobra
open Cobra_components

type t = {
  name : string;
  make : unit -> Topology.t;
  pipeline_config : Pipeline.config;
}

let fetch_width = 4

(* --- Tourney: TOURNEY_3 > [GBIM_2 > BTB_2, LBIM_2] ------------------------- *)

let tourney =
  let make () =
    let gbim =
      Hbim.make
        { (Hbim.default ~name:"GBIM" ~indexing:(Indexing.Ghist 14)) with entries = 16384 }
    in
    let lbim =
      Hbim.make
        { (Hbim.default ~name:"LBIM" ~indexing:(Indexing.Lhist 10)) with entries = 4096 }
    in
    let btb = Btb.make (Btb.default ~name:"BTB") in
    let sel = Tourney.make { (Tourney.default ~name:"TOURNEY") with entries = 1024 } in
    Topology.arbitrate sel
      [ Topology.over gbim (Topology.node btb); Topology.node lbim ]
  in
  {
    name = "Tourney";
    make;
    pipeline_config =
      {
        Pipeline.fetch_width;
        ghist_bits = 32;
        lhist_bits = 32;
        lhist_entries = 256;
      };
  }

(* --- B2: GTAG_3 > BTB_2 > BIM_2 --------------------------------------------- *)

let b2 =
  let make () =
    let gtag =
      Gtag.make { (Gtag.default ~name:"GTAG") with entries = 2048; history_length = 16 }
    in
    let btb = Btb.make (Btb.default ~name:"BTB") in
    let bim =
      Hbim.make { (Hbim.default ~name:"BIM" ~indexing:Indexing.Pc) with entries = 16384 }
    in
    Topology.over gtag (Topology.over btb (Topology.node bim))
  in
  {
    name = "B2";
    make;
    pipeline_config =
      {
        Pipeline.fetch_width;
        ghist_bits = 16;
        lhist_bits = 8;
        lhist_entries = 16;
      };
  }

(* --- TAGE-L: LOOP_3 > TAGE_3 > BTB_2 > BIM_2 > UBTB_1 ------------------------ *)

let make_tage_l ~tage_latency =
  let make () =
    let tage =
      Tage.make
        {
          (Tage.default ~name:"TAGE") with
          latency = tage_latency;
          tables =
            List.map
              (fun h -> { Tage.history_length = h; index_bits = 11; tag_bits = 9 })
              [ 4; 6; 10; 16; 26; 42; 64 ];
        }
    in
    let loop = Loop_pred.make { (Loop_pred.default ~name:"LOOP") with entries = 256 } in
    let btb = Btb.make (Btb.default ~name:"BTB") in
    let bim =
      Hbim.make { (Hbim.default ~name:"BIM" ~indexing:Indexing.Pc) with entries = 8192 }
    in
    let ubtb = Ubtb.make { (Ubtb.default ~name:"UBTB") with entries = 32 } in
    Topology.over loop
      (Topology.over tage (Topology.over btb (Topology.over bim (Topology.node ubtb))))
  in
  {
    name = (if tage_latency = 3 then "TAGE-L" else Printf.sprintf "TAGE-L/lat%d" tage_latency);
    make;
    pipeline_config =
      {
        Pipeline.fetch_width;
        ghist_bits = 64;
        lhist_bits = 8;
        lhist_entries = 16;
      };
  }

let tage_l = make_tage_l ~tage_latency:3
let tage_l_with_latency latency = make_tage_l ~tage_latency:latency

(* --- GShare: a single counter table, the perf-bench floor --------------------- *)

let gshare_only =
  let make () =
    Topology.node
      (Hbim.make
         {
           (Hbim.default ~name:"GSHARE" ~indexing:Indexing.(Hash [ Pc; Ghist 12 ])) with
           entries = 4096;
         })
  in
  {
    name = "GShare";
    make;
    pipeline_config =
      {
        Pipeline.fetch_width;
        ghist_bits = 32;
        lhist_bits = 8;
        lhist_entries = 16;
      };
  }

let all = [ tourney; b2; tage_l ]
let named = gshare_only :: all
let find name = List.find (fun d -> String.equal d.name name) named

let pipeline d = Pipeline.create d.pipeline_config (d.make ())

let direction_state_kb d =
  let topo = d.make () in
  let components = Topology.components topo in
  let direction_bits =
    List.fold_left
      (fun acc (c : Component.t) ->
        match c.family with
        | Component.Btb | Component.Micro_btb -> acc
        | Component.Counter_table | Component.Tagged_table | Component.Tage
        | Component.Loop | Component.Selector | Component.Perceptron
        | Component.Corrector | Component.Static ->
          acc + Storage.total_bits c.storage)
      0 components
  in
  let history_bits =
    d.pipeline_config.Pipeline.ghist_bits
    + (d.pipeline_config.Pipeline.lhist_entries * d.pipeline_config.Pipeline.lhist_bits)
  in
  float_of_int (direction_bits + history_bits) /. 8192.0
