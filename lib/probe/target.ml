open Cobra
open Cobra_components
module Hashing = Cobra_util.Hashing

(* --- expected-response models --------------------------------------------------- *)

type expect =
  | Edge of int
  | Zero_miss of int
  | Rising of int
  | Curve of { levels : int list; model : int -> float; tol : float }
  | Envelope of { lo : int; hi : int }
  | Flat of { acc : float; tol : float }
  | Informational

type t = {
  t_name : string;
  t_kind : string option;
  t_family : string;
  t_doc : string;
  t_make : unit -> Topology.t;
  t_config : Pipeline.config;
  t_expect : string -> expect;
}

let pipeline t = Pipeline.create t.t_config (t.t_make ())

(* Every target elaborates 4-wide with histories wide enough for any
   catalogued component (mirrors the conformance zoo). *)
let std_config =
  {
    Pipeline.fetch_width = 4;
    ghist_bits = 64;
    lhist_bits = 16;
    lhist_entries = 64;
  }

let fw = 4

(* An ideal h-bit-history predictor captures the ladder up to order h and
   the correlated pair up to distance h (the carried bit sits at history
   depth = level), so both collapse at h + 1. The loop survives one level
   further: at period h + 1 the all-taken window appears at exactly one
   position per period (the exit), so prediction is still deterministic;
   only from h + 2 does it cover two positions with different successors
   (accuracy exactly 1 - 2/T there). The loop edge is therefore h + 2. *)
let history_expect ~h = function
  | "ladder" | "corr" -> Edge (h + 1)
  | "loop" -> Edge (h + 2)
  | "phase" ->
    (* perfect once the phase fits the window (every catalogued history
       covers the grid's first level), else one miss per flip *)
    Rising 4
  | _ -> Informational

(* A c-bit saturating counter pays exactly 2^(c-1) mispredicts per bias
   flip: accuracy 1 - 2^(c-1)/p, passing the 0.89 bar at the first grid
   level where that clears. *)
let phase_grid = [ 4; 8; 16; 32; 64 ]

let counter_phase_edge ~counter_bits =
  let cost = float_of_int (1 lsl (counter_bits - 1)) in
  match
    List.find_opt (fun p -> 1.0 -. (cost /. float_of_int p) >= 0.89) phase_grid
  with
  | Some p -> p
  | None -> List.hd (List.rev phase_grid)

(* Exact aliasing model for a PC-indexed 2-bit counter table: fold every
   site's PC through the declared index function. A counter shared by two
   opposite-bias sites sees their outcomes alternate; from the weakly-NT
   reset it settles into a period-2 orbit fixed by the first-visited site's
   bias — taken-first oscillates between the weak states (wrong on both
   visits, 2 misses/round), not-taken-first locks the strong-NT edge (wrong
   on the taken visit only, 1 miss/round). Exact while buckets hold at most
   two sites, which the level grid (capped at 2C) guarantees. *)
let alias_model ~index_bits n =
  let buckets = Hashtbl.create 64 in
  for i = n - 1 downto 0 do
    (* downto: head of each bucket list ends as its first-visited site *)
    let idx = Hashing.pc_index ~pc:(Pattern.alias_site_pc i) ~bits:index_bits in
    let sites = Option.value (Hashtbl.find_opt buckets idx) ~default:[] in
    Hashtbl.replace buckets idx (i :: sites)
  done;
  let misses =
    Hashtbl.fold
      (fun _ sites acc ->
        let mixed =
          List.exists Pattern.alias_site_bias sites
          && List.exists (fun i -> not (Pattern.alias_site_bias i)) sites
        in
        if not mixed then acc
        else acc + (if Pattern.alias_site_bias (List.hd sites) then 2 else 1))
      buckets 0
  in
  1.0 -. (float_of_int misses /. float_of_int n)

let alias_expect ~index_bits =
  let c = 1 lsl index_bits in
  Curve
    {
      levels = [ c / 2; c; c + max 4 (c / 8); 2 * c ];
      model = alias_model ~index_bits;
      tol = 0.03;
    }

(* --- component targets ----------------------------------------------------------- *)

(* A target built from library components, [kind] being the catalogue kind
   it probes (its topology may carry other components in support). *)
let component ?(expect = fun _ -> Informational) ~kind ~name ~family ~doc make =
  {
    t_name = name;
    t_kind = Some kind;
    t_family = family;
    t_doc = doc;
    t_make = make;
    t_config = std_config;
    t_expect = expect;
  }

let bim_target =
  let index_bits = 6 in
  component ~kind:"HBIM" ~name:"BIM" ~family:"bimodal" ~doc:"PC-indexed 2-bit counters, 64 entries"
    ~expect:(function
      | "alias" -> alias_expect ~index_bits
      | "phase" -> Rising (counter_phase_edge ~counter_bits:2)
      | _ -> Informational)
    (fun () ->
      Topology.node
        (Hbim.make
           { (Hbim.default ~name:"BIM" ~indexing:Indexing.Pc) with entries = 1 lsl index_bits }))

let gbim_target =
  let h = 6 in
  component ~kind:"HBIM" ~name:"GBIM" ~family:"gshare-like"
    ~doc:"ghist[6]-indexed 2-bit counters, 64 entries (fold injective)" ~expect:(history_expect ~h)
    (fun () ->
      Topology.node
        (Hbim.make
           { (Hbim.default ~name:"GBIM" ~indexing:(Indexing.Ghist h)) with entries = 1 lsl h }))

let lbim_target =
  let h = 8 in
  component ~kind:"HBIM" ~name:"LBIM" ~family:"local"
    ~doc:"lhist[8]-indexed 2-bit counters, 256 entries"
    ~expect:(function
      (* single-PC probes make local history = global history; the cross-PC
         correlated pair is exactly what local history cannot see *)
      | "ladder" -> Edge (h + 1)
      | "loop" -> Edge (h + 2)
      | "phase" -> Rising 4
      | _ -> Informational)
    (fun () ->
      Topology.node
        (Hbim.make
           { (Hbim.default ~name:"LBIM" ~indexing:(Indexing.Lhist h)) with entries = 1 lsl h }))

let gshare_small ~name ~index_bits ~history_length =
  Hbim.make
    {
      (Hbim.default ~name ~indexing:Indexing.(Hash [ Pc; Ghist history_length ])) with
      Hbim.entries = 1 lsl index_bits;
      fetch_width = fw;
    }

let gshare6_target =
  let h = 6 in
  component ~kind:"HBIM" ~name:"GSHARE6" ~family:"gshare-like"
    ~doc:"gshare, 6-bit history xor 6-bit index (64 entries)" ~expect:(history_expect ~h)
    (fun () -> Topology.node (gshare_small ~name:"GSHARE" ~index_bits:h ~history_length:h))

let gshare12_target =
  let h = 12 in
  component ~kind:"HBIM" ~name:"GSHARE12" ~family:"gshare-like"
    ~doc:"default gshare geometry: 12-bit history, 4K entries" ~expect:(history_expect ~h)
    (fun () -> Topology.node (gshare_small ~name:"GSHARE" ~index_bits:h ~history_length:h))

let missized_target =
  (* The fidelity-oracle demo: *declares* the default 12-bit geometry (so
     the expected capacity edge is 13) but is *built* with only 8 history
     bits — the capacity probe must catch the lie. *)
  {
    gshare12_target with
    t_name = "GSHARE!missized";
    t_doc = "demo: declares 12 history bits, built with 8 - must fail the ladder";
    t_make =
      (fun () -> Topology.node (gshare_small ~name:"GSHARE" ~index_bits:12 ~history_length:8));
  }

let gselect_target =
  let h = 4 in
  component ~kind:"HBIM" ~name:"GSELECT" ~family:"gshare-like"
    ~doc:"gselect, 3 PC bits ++ 4 history bits" ~expect:(history_expect ~h)
    (fun () ->
      Topology.node
        (Hbim.make
           {
             (Hbim.default ~name:"GSELECT" ~indexing:Indexing.(Concat [ (Pc, 3); (Ghist h, h) ]))
             with
             Hbim.entries = 1 lsl (3 + h);
           }))

(* History-indexed tagging mixes 10 history bits into index and tag, so on
   shuffled multi-site streams the working set is sites x histories -
   neither the corr edge nor the tag envelope has a clean analytical form.
   Measured and reported, not gated. *)
let gtag_target =
  component ~kind:"GTAG" ~name:"GTAG" ~family:"tagged"
    ~doc:"partially-tagged global table, 64 entries, 10-bit history, 5-bit tags" (fun () ->
      Topology.node
        (Gtag.make
           {
             (Gtag.default ~name:"GTAG") with
             Gtag.entries = 64;
             tag_bits = 5;
             history_length = 10;
           }))

let gtag0_target =
  let entries = 64 in
  component ~kind:"GTAG" ~name:"GTAG0" ~family:"tagged"
    ~doc:"PC-only tagged table (history length 0), 64 entries, 8-bit tags"
    ~expect:(function
      (* with history out of the index the probe's contiguous sites are
         collision-free through E, then contested pairwise: accuracy holds
         at exactly E and collapses within E/8 beyond it *)
      | "tag" -> Envelope { lo = entries; hi = 2 * entries }
      | _ -> Informational)
    (fun () ->
      Topology.node
        (Gtag.make
           { (Gtag.default ~name:"GTAG0") with Gtag.entries; tag_bits = 8; history_length = 0 }))

let tage_target =
  let h = 64 in
  component ~kind:"TAGE" ~name:"TAGE" ~family:"tage-like"
    ~doc:"default TAGE: 7 tables, histories 4..64"
    ~expect:(function "corr" -> Edge (h + 1) | _ -> Informational)
    (fun () -> Topology.node (Tage.make (Tage.default ~name:"TAGE")))

let loop_target =
  let count_bits = 10 in
  component ~kind:"LOOP" ~name:"LOOP" ~family:"loop"
    ~doc:"loop predictor, 256 entries, 10-bit trip counters"
    ~expect:(function
      (* the iteration counter saturates at 2^count_bits - 1 and a saturated
         count is ambiguous (the real trip count could be anything larger),
         so the longest learnable trip count is 2^count_bits - 2 and the
         first mispredicting period is exactly 2^count_bits *)
      | "loop" -> Zero_miss (1 lsl count_bits)
      | _ -> Informational)
    (fun () -> Topology.node (Loop_pred.make (Loop_pred.default ~name:"LOOP")))

let perc_target =
  let h = 12 in
  component ~kind:"PERCEPTRON" ~name:"PERC" ~family:"perceptron"
    ~doc:"perceptron over 12 history bits"
    ~expect:(function
      (* the single carried bit is linearly separable; the de Bruijn ladder
         (a parity-like function of the window) is not *)
      | "corr" -> Edge (h + 1)
      | _ -> Informational)
    (fun () ->
      Topology.node
        (Perceptron.make { (Perceptron.default ~name:"PERC") with Perceptron.history_length = h }))

let gehl_target =
  let h = 8 in
  component ~kind:"GEHL" ~name:"GEHL" ~family:"gehl" ~doc:"O-GEHL, 4 tables, histories 0/2/4/8"
    ~expect:(function "corr" -> Edge (h + 1) | _ -> Informational)
    (fun () ->
      Topology.node
        (Gehl.make
           {
             (Gehl.default ~name:"GEHL") with
             Gehl.table_bits = 7;
             history_lengths = [ 0; 2; 4; 8 ];
           }))

let yags_target =
  component ~kind:"YAGS" ~name:"YAGS" ~family:"tagged" ~doc:"YAGS choice table + exception caches"
    (fun () -> Topology.node (Yags.make (Yags.default ~name:"YAGS")))

let tourney_target =
  let hg = 6 and hl = 8 in
  component ~kind:"TOURNEY" ~name:"TOURNEY68" ~family:"composite"
    ~doc:"tournament selector over GBIM(ghist 6) and LBIM(lhist 8)"
    ~expect:(function
      (* the selector should ride whichever side can see the phenomenon:
         local history reaches order 8 on the single-PC ladder, global
         history alone captures the cross-PC pair (edge 7). No loop edge:
         past both histories a counter table still gets every body
         iteration right (1 miss per period), flooring accuracy at
         1 - 1/T >= 0.9 for T >= 10, so the composite never collapses. *)
      | "ladder" -> Edge (max hg hl + 1)
      | "corr" -> Edge (hg + 1)
      | _ -> Informational)
    (fun () ->
      let gbim =
        Hbim.make
          { (Hbim.default ~name:"GBIM" ~indexing:(Indexing.Ghist hg)) with entries = 1 lsl hg }
      in
      let lbim =
        Hbim.make
          { (Hbim.default ~name:"LBIM" ~indexing:(Indexing.Lhist hl)) with entries = 1 lsl hl }
      in
      let sel = Tourney.make (Tourney.default ~name:"TOURNEY") in
      Topology.arbitrate sel [ Topology.node gbim; Topology.node lbim ])

let sc_target =
  component ~kind:"SC" ~name:"SC" ~family:"corrector" ~doc:"statistical corrector over a 6/6 gshare"
    (fun () ->
      let sc = Statistical_corrector.make (Statistical_corrector.default ~name:"SC") in
      Topology.over sc
        (Topology.node (gshare_small ~name:"GSHARE" ~index_bits:6 ~history_length:6)))

let btb_target =
  component ~kind:"BTB" ~name:"BTB" ~family:"target-only"
    ~doc:"branch target buffer alone (no direction opinions)" (fun () ->
      Topology.node (Btb.make (Btb.default ~name:"BTB")))

let ubtb_target =
  component ~kind:"UBTB" ~name:"UBTB" ~family:"target-only"
    ~doc:"micro-BTB alone (no direction opinions)" (fun () ->
      Topology.node (Ubtb.make (Ubtb.default ~name:"UBTB")))

let ittage_target =
  component ~kind:"ITTAGE" ~name:"ITTAGE" ~family:"target-only"
    ~doc:"indirect-target TAGE (silent on conditional streams)" (fun () ->
      Topology.node (Ittage.make (Ittage.default ~name:"ITTAGE")))

let always_target =
  component ~kind:"STATIC" ~name:"ALWAYS" ~family:"static" ~doc:"static always-taken"
    ~expect:(function
      (* a de Bruijn cycle is exactly half taken: always-taken must sit at
         0.500 on every ladder level - a flat exact model *)
      | "ladder" -> Flat { acc = 0.5; tol = 0.02 }
      | _ -> Informational)
    (fun () -> Topology.node (Static_pred.always ~name:"ALWAYS" ~taken:true ~fetch_width:fw ()))

let btfn_target =
  component ~kind:"STATIC" ~name:"BTFN" ~family:"static"
    ~doc:"backward-taken/forward-not-taken (needs targets; silent here)" (fun () ->
      Topology.node (Static_pred.btfn ~name:"BTFN" ~fetch_width:fw ()))

(* --- design targets -------------------------------------------------------------- *)

let of_design ?(expect = fun _ -> Informational) ~family ~doc (d : Cobra_eval.Designs.t) =
  {
    t_name = d.Cobra_eval.Designs.name;
    t_kind = None;
    t_family = family;
    t_doc = doc;
    t_make = d.Cobra_eval.Designs.make;
    t_config = d.Cobra_eval.Designs.pipeline_config;
    t_expect = expect;
  }

let gshare_design_target =
  of_design Cobra_eval.Designs.gshare_only ~family:"gshare-like"
    ~doc:"GShare reference design (12-bit history, 4K entries)"
    ~expect:(history_expect ~h:12)

let tage_l_target =
  of_design Cobra_eval.Designs.tage_l ~family:"tage-like"
    ~doc:"TAGE-L reference design (TAGE h<=64 under a 1024-trip loop predictor)"
    ~expect:(function
      | "corr" -> Edge 65 (* longest TAGE table history *)
      | "loop" -> Zero_miss 1024 (* loop predictor 10-bit trip counter *)
      | _ -> Informational)

let b2_target =
  of_design Cobra_eval.Designs.b2 ~family:"tagged"
    ~doc:"B2 reference design (GTAG h=16 over BIM)"
    (* no corr edge: GTAG allocates on every miss, so filler/B-site index
       contention permanently contests a fraction of B's history contexts
       (measured ~0.83 well below the 16-bit capacity) - a probe-suite
       finding about the composition, reported but not gated *)

let tourney_design_target =
  of_design Cobra_eval.Designs.tourney ~family:"composite"
    ~doc:"Tourney reference design (GBIM ghist 14 / LBIM lhist 10)"
    ~expect:(function
      (* GBIM's 14 ghist bits; no loop edge for the same reason as the
         TOURNEY component target (counter-table 1 - 1/T floor) *)
      | "corr" -> Edge 15
      | _ -> Informational)

(* --- target lists ---------------------------------------------------------------- *)

let components =
  [
    bim_target; gbim_target; lbim_target; gshare6_target; gshare12_target; gselect_target;
    gtag_target; gtag0_target; tage_target; loop_target; perc_target; gehl_target; yags_target;
    tourney_target; sc_target; btb_target; ubtb_target; ittage_target; always_target;
    btfn_target;
  ]

let designs = [ gshare_design_target; tage_l_target; b2_target; tourney_design_target ]

let all = components @ designs
let demos = [ missized_target ]

let names = List.map (fun t -> t.t_name) all

let find name =
  let n = String.lowercase_ascii (String.trim name) in
  match
    List.find_opt (fun t -> String.equal (String.lowercase_ascii t.t_name) n) (all @ demos)
  with
  | Some t -> Ok t
  | None ->
    Error
      (Printf.sprintf "unknown probe target %S (valid targets: %s)" name
         (String.concat ", " (names @ List.map (fun t -> t.t_name) demos)))

let find_exn name = match find name with Ok t -> t | Error m -> failwith m
