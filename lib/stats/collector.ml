module Pipeline = Cobra.Pipeline
module Topology = Cobra.Topology
module Types = Cobra.Types
module Component = Cobra.Component
module History_file = Cobra.History_file
module Row = Cobra.Row

let n_events = List.length Component.all_event_kinds

(* Per-arbitration-node tallies. [a_stage] is the 0-based stage index at
   which the selector's decision becomes visible; sub composites are read at
   that same stage, mirroring the composer's predict_in wiring. *)
type arb = {
  a_sel_id : int;
  a_sel_name : string;
  a_sub_names : string array;
  a_sub_prio : int list array;  (* per sub: component ids, strongest first *)
  a_out_prio : int list;  (* selector over the first sub *)
  a_tallies : int array array;  (* [sub](won, won_right, won_wrong, right, wrong) *)
}

type branch_stat = {
  mutable b_execs : int;
  mutable b_taken : int;
  mutable b_transitions : int;
  mutable b_last : bool option;
  mutable b_mispredicts : int;
}

type t = {
  pl : Pipeline.t;
  comps : Component.t array;
  events : int array array;  (* [component][event kind] *)
  final_prio : int list;  (* final-stage priority, strongest first *)
  arbs : arb list;
  caused : (string, int) Hashtbl.t;
  saved : (string, int) Hashtbl.t;
  branches : (int, branch_stat) Hashtbl.t;
  interval : Interval.t;
  mutable total_mispredicts : int;
  mutable squashed_packets : int;
}

let component_index comps (c : Component.t) =
  let n = Array.length comps in
  let rec go i =
    if i >= n then invalid_arg "Collector: component not in pipeline"
    else if comps.(i) == c then i
    else go (i + 1)
  in
  go 0

(* Component ids contributing to the composite at [stage] (0-based),
   strongest first — the composer's overlay order: Override hi over lo; an
   arbitration selector over its FIRST sub-topology only (the other subs
   never reach the composite), each gated by its latency. *)
let rec priority_at comps topo ~stage =
  match topo with
  | Topology.Node c ->
    if c.Component.latency <= stage + 1 then [ component_index comps c ] else []
  | Topology.Override (hi, lo) ->
    priority_at comps hi ~stage @ priority_at comps lo ~stage
  | Topology.Arbitrate (sel, subs) ->
    (if sel.Component.latency <= stage + 1 then [ component_index comps sel ] else [])
    @ (match subs with s :: _ -> priority_at comps s ~stage | [] -> [])

let rec collect_arbs comps depth topo acc =
  match topo with
  | Topology.Node _ -> acc
  | Topology.Override (hi, lo) -> collect_arbs comps depth hi (collect_arbs comps depth lo acc)
  | Topology.Arbitrate (sel, subs) ->
    let acc = List.fold_left (fun acc s -> collect_arbs comps depth s acc) acc subs in
    let stage = min sel.Component.latency depth - 1 in
    let arb =
      {
        a_sel_id = component_index comps sel;
        a_sel_name = sel.Component.name;
        a_sub_names = Array.of_list (List.map Topology.to_expression subs);
        a_sub_prio = Array.of_list (List.map (fun s -> priority_at comps s ~stage) subs);
        a_out_prio =
          component_index comps sel
          :: (match subs with s :: _ -> priority_at comps s ~stage | [] -> []);
        a_tallies = Array.init (List.length subs) (fun _ -> Array.make 5 0);
      }
    in
    arb :: acc

let incr_tbl tbl key =
  Hashtbl.replace tbl key (1 + Option.value (Hashtbl.find_opt tbl key) ~default:0)

(* --- provenance over recorded raw predictions --------------------------- *)

(* First component in priority order with a direction opinion for [slot]. *)
let dir_winner (raw : Row.t array) prio ~slot =
  let rec go = function
    | [] -> None
    | cid :: rest ->
      if Row.taken_known raw.(cid) slot then Some (cid, Row.taken raw.(cid) slot, rest)
      else go rest
  in
  go prio

let target_provider (raw : Row.t array) prio ~slot =
  List.find_opt (fun cid -> Row.target_known raw.(cid) slot) prio

(* --- lifecycle ---------------------------------------------------------- *)

let rec attach_observer t =
  Pipeline.set_observer t.pl
    (Some
       (fun ev ->
         match ev with
         | Pipeline.Predicted _ ->
           Array.iter (fun row -> row.(0) <- row.(0) + 1) t.events
         | Pipeline.Fired _ -> Array.iter (fun row -> row.(1) <- row.(1) + 1) t.events
         | Pipeline.Resolved { slot; actual; entry; _ } -> t_resolved t entry ~slot actual
         | Pipeline.Mispredicted { slot; actual; entry; _ } ->
           Array.iter (fun row -> row.(2) <- row.(2) + 1) t.events;
           t_mispredicted t entry ~slot actual
         | Pipeline.Repaired _ ->
           Array.iter (fun row -> row.(3) <- row.(3) + 1) t.events
         | Pipeline.Committed _ ->
           Array.iter (fun row -> row.(4) <- row.(4) + 1) t.events
         | Pipeline.Squashed { packets } ->
           t.squashed_packets <- t.squashed_packets + packets))

(* Branch table + arbitration tallies, on every resolved branch (correct or
   not). *)
and note_branch t (e : History_file.entry) ~slot (actual : Types.resolved) ~mispredicted =
  if actual.Types.r_is_branch then begin
    let pc = Cobra.Context.slot_pc e.e_ctx slot in
    let st =
      match Hashtbl.find_opt t.branches pc with
      | Some st -> st
      | None ->
        let st =
          { b_execs = 0; b_taken = 0; b_transitions = 0; b_last = None; b_mispredicts = 0 }
        in
        Hashtbl.add t.branches pc st;
        st
    in
    st.b_execs <- st.b_execs + 1;
    if actual.Types.r_taken then st.b_taken <- st.b_taken + 1;
    (match st.b_last with
    | Some last when last <> actual.Types.r_taken ->
      st.b_transitions <- st.b_transitions + 1
    | Some _ | None -> ());
    st.b_last <- Some actual.Types.r_taken;
    if mispredicted then st.b_mispredicts <- st.b_mispredicts + 1;
    (* Arbitration tallies: which sub did the selector side with, and who
       was right, per conditional decision. *)
    if actual.Types.r_kind = Types.Cond then
      match e.e_raw with
      | None -> ()
      | Some raw ->
        List.iter
          (fun arb ->
            match dir_winner raw arb.a_out_prio ~slot with
            | None -> ()
            | Some (_, out_dir, _) ->
              let winner = ref (-1) in
              Array.iteri
                (fun i prio ->
                  match dir_winner raw prio ~slot with
                  | Some (_, d, _) ->
                    let tal = arb.a_tallies.(i) in
                    if d = actual.Types.r_taken then tal.(3) <- tal.(3) + 1
                    else tal.(4) <- tal.(4) + 1;
                    if d = out_dir && !winner < 0 then winner := i
                  | None -> ())
                arb.a_sub_prio;
              if !winner >= 0 then begin
                let tal = arb.a_tallies.(!winner) in
                tal.(0) <- tal.(0) + 1;
                if out_dir = actual.Types.r_taken then tal.(1) <- tal.(1) + 1
                else tal.(2) <- tal.(2) + 1
              end)
          t.arbs
  end

and t_resolved t e ~slot actual =
  note_branch t e ~slot actual ~mispredicted:false;
  (* "saved": the composite's direction winner was right while its shadow —
     the next opinion in the chain, or the static not-taken default — would
     have been wrong. *)
  if actual.Types.r_is_branch && actual.Types.r_kind = Types.Cond then
    match e.e_raw with
    | Some raw -> (
      match dir_winner raw t.final_prio ~slot with
      | Some (cid, d, rest) when d = actual.Types.r_taken ->
        let shadow =
          match dir_winner raw rest ~slot with Some (_, d', _) -> d' | None -> false
        in
        if shadow <> actual.Types.r_taken then
          incr_tbl t.saved t.comps.(cid).Component.name
      | Some _ | None -> ())
    | None -> ()

(* Attribute the mispredict to exactly one bucket — a total function, so the
   bucket sum equals the pipeline's mispredict count by construction. *)
and t_mispredicted t e ~slot actual =
  t.total_mispredicts <- t.total_mispredicts + 1;
  note_branch t e ~slot actual ~mispredicted:true;
  let bucket =
    match e.e_raw with
    | None -> "unattributed"
    | Some raw ->
      let acted = e.e_predicted.(slot) in
      let final = e.e_stages.(Array.length e.e_stages - 1) in
      if acted.Types.r_taken <> actual.Types.r_taken then begin
        (* direction mispredict *)
        match if Row.taken_known final slot then Some (Row.taken final slot) else None with
        | Some d when d = acted.Types.r_taken -> (
          (* the composite drove the wrong direction: the chain's direction
             winner caused it *)
          match dir_winner raw t.final_prio ~slot with
          | Some (cid, _, _) -> t.comps.(cid).Component.name
          | None -> "frontend")
        | Some _ -> "frontend"  (* composite was right; the frontend acted otherwise *)
        | None -> if acted.Types.r_taken then "frontend" else "default"
      end
      else begin
        (* direction agreed; the target was wrong *)
        match if Row.target_known final slot then Some (Row.target final slot) else None with
        | Some tgt when tgt = acted.Types.r_target -> (
          match target_provider raw t.final_prio ~slot with
          | Some cid -> t.comps.(cid).Component.name
          | None -> "frontend")
        | Some _ | None -> "frontend"  (* RAS/decode-computed target *)
      end
  in
  incr_tbl t.caused bucket

(* Nominal instructions per interval bucket, and rows in the report's
   hard-branch table. *)
let interval_width = 1000
let top = 20

let create pl =
  let comps = Pipeline.components pl in
  let depth = Pipeline.depth pl in
  let topo = Pipeline.topology pl in
  let t =
    {
      pl;
      comps;
      events = Array.init (Array.length comps) (fun _ -> Array.make n_events 0);
      final_prio = priority_at comps topo ~stage:(depth - 1);
      arbs = List.rev (collect_arbs comps depth topo []);
      caused = Hashtbl.create 8;
      saved = Hashtbl.create 8;
      branches = Hashtbl.create 256;
      interval = Interval.create ~width:interval_width ();
      total_mispredicts = 0;
      squashed_packets = 0;
    }
  in
  attach_observer t;
  t

let sample t ~insns ~cycles ~mispredicts =
  Interval.sample t.interval ~insns ~cycles ~mispredicts

let buckets t =
  (* component buckets first (in pipeline order), then pseudo-buckets *)
  let comp_buckets =
    Array.to_list t.comps
    |> List.filter_map (fun (c : Component.t) ->
           Option.map (fun n -> (c.Component.name, n)) (Hashtbl.find_opt t.caused c.Component.name))
  in
  let pseudo =
    List.filter_map
      (fun k -> Option.map (fun n -> (k, n)) (Hashtbl.find_opt t.caused k))
      [ "default"; "frontend"; "unattributed" ]
  in
  comp_buckets @ pseudo

let report t ~insns ~cycles ~mispredicts ~design ~workload ~perf =
  Interval.flush t.interval ~insns ~cycles ~mispredicts;
  Pipeline.set_observer t.pl None;
  let components =
    Array.to_list
      (Array.mapi
         (fun i (c : Component.t) ->
           {
             Report.cr_name = c.Component.name;
             cr_events = Array.copy t.events.(i);
             cr_caused = Option.value (Hashtbl.find_opt t.caused c.Component.name) ~default:0;
             cr_saved = Option.value (Hashtbl.find_opt t.saved c.Component.name) ~default:0;
           })
         t.comps)
  in
  let arbitrations =
    List.map
      (fun arb ->
        {
          Report.ar_selector = arb.a_sel_name;
          ar_subs =
            Array.to_list
              (Array.mapi
                 (fun i name ->
                   let tal = arb.a_tallies.(i) in
                   {
                     Report.as_name = name;
                     as_won = tal.(0);
                     as_won_right = tal.(1);
                     as_won_wrong = tal.(2);
                     as_right = tal.(3);
                     as_wrong = tal.(4);
                   })
                 arb.a_sub_names);
        })
      t.arbs
  in
  let branches =
    Hashtbl.fold
      (fun pc st acc ->
        {
          Report.br_pc = pc;
          br_execs = st.b_execs;
          br_taken = st.b_taken;
          br_transitions = st.b_transitions;
          br_mispredicts = st.b_mispredicts;
        }
        :: acc)
      t.branches []
    |> List.sort (fun (a : Report.branch_row) b ->
           match compare b.br_mispredicts a.br_mispredicts with
           | 0 -> compare a.br_pc b.br_pc
           | c -> c)
    |> List.filteri (fun i _ -> i < top)
  in
  {
    Report.design;
    workload;
    total_mispredicts = t.total_mispredicts;
    buckets = buckets t;
    components;
    arbitrations;
    branches;
    intervals = Interval.points t.interval;
    interval_width = Interval.width t.interval;
    squashed_packets = t.squashed_packets;
    perf;
  }
