type component_row = {
  cr_name : string;
  cr_events : int array; (* indexed by Component.event_kind_index *)
  cr_caused : int;
  cr_saved : int;
}

type arb_sub_row = {
  as_name : string;
  as_won : int;
  as_won_right : int;
  as_won_wrong : int;
  as_right : int;
  as_wrong : int;
}

type arb_row = { ar_selector : string; ar_subs : arb_sub_row list }

type branch_row = {
  br_pc : int;
  br_execs : int;
  br_taken : int;
  br_transitions : int;
  br_mispredicts : int;
}

type t = {
  design : string;
  workload : string;
  total_mispredicts : int;
  buckets : (string * int) list;
  components : component_row list;
  arbitrations : arb_row list;
  branches : branch_row list;
  intervals : Interval.point list;
  interval_width : int;
  squashed_packets : int;
  perf : (string * int) list;
}

let attributed t = List.fold_left (fun acc (_, n) -> acc + n) 0 t.buckets

let taken_rate b = if b.br_execs = 0 then 0.0 else float_of_int b.br_taken /. float_of_int b.br_execs

let transition_rate b =
  if b.br_execs <= 1 then 0.0
  else float_of_int b.br_transitions /. float_of_int (b.br_execs - 1)

let event_names = List.map Cobra.Component.event_kind_name Cobra.Component.all_event_kinds

(* --- JSON --------------------------------------------------------------- *)

let to_json t =
  let component_row (r : component_row) =
    Json.Obj
      ([ ("name", Json.String r.cr_name) ]
      @ List.mapi (fun i name -> (name, Json.Int r.cr_events.(i))) event_names
      @ [ ("caused", Json.Int r.cr_caused); ("saved", Json.Int r.cr_saved) ])
  in
  let arb_sub (s : arb_sub_row) =
    Json.Obj
      [
        ("name", Json.String s.as_name);
        ("won", Json.Int s.as_won);
        ("won_right", Json.Int s.as_won_right);
        ("won_wrong", Json.Int s.as_won_wrong);
        ("right", Json.Int s.as_right);
        ("wrong", Json.Int s.as_wrong);
      ]
  in
  let arb (a : arb_row) =
    Json.Obj
      [
        ("selector", Json.String a.ar_selector);
        ("subs", Json.List (List.map arb_sub a.ar_subs));
      ]
  in
  let branch (b : branch_row) =
    Json.Obj
      [
        ("pc", Json.Int b.br_pc);
        ("execs", Json.Int b.br_execs);
        ("taken", Json.Int b.br_taken);
        ("transitions", Json.Int b.br_transitions);
        ("mispredicts", Json.Int b.br_mispredicts);
      ]
  in
  let interval (p : Interval.point) =
    Json.Obj
      [
        ("start", Json.Int p.Interval.p_start);
        ("insns", Json.Int p.Interval.p_insns);
        ("cycles", Json.Int p.Interval.p_cycles);
        ("mispredicts", Json.Int p.Interval.p_mispredicts);
      ]
  in
  Json.Obj
    [
      ("design", Json.String t.design);
      ("workload", Json.String t.workload);
      ("total_mispredicts", Json.Int t.total_mispredicts);
      ("attribution", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) t.buckets));
      ("components", Json.List (List.map component_row t.components));
      ("arbitration", Json.List (List.map arb t.arbitrations));
      ("branches", Json.List (List.map branch t.branches));
      ( "intervals",
        Json.Obj
          [
            ("width", Json.Int t.interval_width);
            ("points", Json.List (List.map interval t.intervals));
          ] );
      ("squashed_packets", Json.Int t.squashed_packets);
      ("perf", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) t.perf));
    ]

(* --- CSV ---------------------------------------------------------------- *)

(* Flat 4-column format: section,name,field,value — trivially grep-able and
   parseable, with every numeric field round-tripping exactly. *)

let csv_escape s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s then begin
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end
  else s

let to_csv t =
  let buf = Buffer.create 1024 in
  let row section name field value =
    Buffer.add_string buf
      (Printf.sprintf "%s,%s,%s,%s\n" (csv_escape section) (csv_escape name)
         (csv_escape field) (csv_escape value))
  in
  Buffer.add_string buf "section,name,field,value\n";
  row "meta" "design" "" t.design;
  row "meta" "workload" "" t.workload;
  row "meta" "total_mispredicts" "" (string_of_int t.total_mispredicts);
  row "meta" "squashed_packets" "" (string_of_int t.squashed_packets);
  row "meta" "interval_width" "" (string_of_int t.interval_width);
  List.iter (fun (k, v) -> row "attribution" k "" (string_of_int v)) t.buckets;
  List.iter
    (fun (r : component_row) ->
      List.iteri
        (fun i name -> row "component" r.cr_name name (string_of_int r.cr_events.(i)))
        event_names;
      row "component" r.cr_name "caused" (string_of_int r.cr_caused);
      row "component" r.cr_name "saved" (string_of_int r.cr_saved))
    t.components;
  List.iter
    (fun (a : arb_row) ->
      List.iter
        (fun (s : arb_sub_row) ->
          let f field v = row "arb" a.ar_selector (s.as_name ^ "." ^ field) (string_of_int v) in
          f "won" s.as_won;
          f "won_right" s.as_won_right;
          f "won_wrong" s.as_won_wrong;
          f "right" s.as_right;
          f "wrong" s.as_wrong)
        a.ar_subs)
    t.arbitrations;
  List.iter
    (fun (b : branch_row) ->
      let name = Printf.sprintf "0x%x" b.br_pc in
      row "branch" name "execs" (string_of_int b.br_execs);
      row "branch" name "taken" (string_of_int b.br_taken);
      row "branch" name "transitions" (string_of_int b.br_transitions);
      row "branch" name "mispredicts" (string_of_int b.br_mispredicts))
    t.branches;
  List.iteri
    (fun i (p : Interval.point) ->
      let name = string_of_int i in
      row "interval" name "start" (string_of_int p.Interval.p_start);
      row "interval" name "insns" (string_of_int p.Interval.p_insns);
      row "interval" name "cycles" (string_of_int p.Interval.p_cycles);
      row "interval" name "mispredicts" (string_of_int p.Interval.p_mispredicts))
    t.intervals;
  List.iter (fun (k, v) -> row "perf" k "" (string_of_int v)) t.perf;
  Buffer.contents buf

(* --- rendering ---------------------------------------------------------- *)

let summary t =
  let top_bucket =
    match List.sort (fun (_, a) (_, b) -> compare b a) t.buckets with
    | (name, n) :: _ when n > 0 -> Printf.sprintf ", top %s=%d" name n
    | _ -> ""
  in
  Printf.sprintf "%d mispredicts%s, %d intervals" t.total_mispredicts top_bucket
    (List.length t.intervals)

let render t =
  let buf = Buffer.create 1024 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr "design: %s  workload: %s\n" t.design t.workload;
  pr "total mispredicts: %d (attributed: %d)\n\n" t.total_mispredicts (attributed t);
  pr "%-16s %10s %10s %10s %10s %10s %8s %8s\n" "component" "predict" "fire" "mispredict"
    "repair" "update" "caused" "saved";
  List.iter
    (fun (r : component_row) ->
      pr "%-16s %10d %10d %10d %10d %10d %8d %8d\n" r.cr_name r.cr_events.(0)
        r.cr_events.(1) r.cr_events.(2) r.cr_events.(3) r.cr_events.(4) r.cr_caused
        r.cr_saved)
    t.components;
  let pseudo =
    List.filter
      (fun (k, _) -> not (List.exists (fun r -> r.cr_name = k) t.components))
      t.buckets
  in
  List.iter (fun (k, v) -> pr "%-16s %64s %8d %8s\n" k "" v "-") pseudo;
  if t.arbitrations <> [] then begin
    pr "\n%-16s %-16s %8s %10s %10s %8s %8s\n" "selector" "sub" "won" "won_right"
      "won_wrong" "right" "wrong";
    List.iter
      (fun (a : arb_row) ->
        List.iter
          (fun (s : arb_sub_row) ->
            pr "%-16s %-16s %8d %10d %10d %8d %8d\n" a.ar_selector s.as_name s.as_won
              s.as_won_right s.as_won_wrong s.as_right s.as_wrong)
          a.ar_subs)
      t.arbitrations
  end;
  if t.branches <> [] then begin
    pr "\n%-12s %10s %10s %10s %12s %12s\n" "branch" "execs" "mispred" "taken"
      "taken-rate" "trans-rate";
    List.iter
      (fun (b : branch_row) ->
        pr "0x%-10x %10d %10d %10d %12.3f %12.3f\n" b.br_pc b.br_execs b.br_mispredicts
          b.br_taken (taken_rate b) (transition_rate b))
      t.branches
  end;
  if t.intervals <> [] then begin
    pr "\nintervals (width %d insns):\n" t.interval_width;
    pr "%-12s %10s %10s %10s %8s %8s\n" "start" "insns" "cycles" "mispred" "ipc" "mpki";
    List.iter
      (fun (p : Interval.point) ->
        pr "%-12d %10d %10d %10d %8.3f %8.2f\n" p.Interval.p_start p.Interval.p_insns
          p.Interval.p_cycles p.Interval.p_mispredicts (Interval.ipc p) (Interval.mpki p))
      t.intervals
  end;
  Buffer.contents buf
