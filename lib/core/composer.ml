module Bits = Cobra_util.Bits

(* One component evaluation. Registers index the bank of per-stage
   composites; register 0 is the all-silent bottom. *)
type step = {
  comp : Component.t;
  id : int;  (* position in [comps] *)
  stage : int;  (* predict-in stage, [min latency depth - 1] *)
  srcs : int array;  (* [predict_in] registers; the step overlays [srcs.(0)] *)
  dst : int;
  mutable pin_rows : Types.prediction array;  (* per source, the row [pin] holds *)
  mutable pin : Types.prediction list;  (* the last [predict_in] *)
  mutable alt_rows : Types.prediction array;
  mutable alt : Types.prediction list;  (* the [predict_in] before [pin] *)
}

type t = {
  comps : Component.t array;
  depth : int;
  width : int;
  steps : step array;  (* evaluation order *)
  root : int;
  regs : Types.prediction array array;
      (* per register, its per-stage rows: each is a row of the source
         register (stages before the latency, silent components) or one of
         the register's own merge rows *)
  merged : Types.prediction array array;  (* per register, its merge rows *)
  outs : Types.prediction array;  (* per component id *)
  metas : Bits.t array;  (* per component id *)
}

let create ~fetch_width topo =
  if fetch_width < 1 then invalid_arg "Composer.create: fetch_width < 1";
  (match Topology.validate topo with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Composer.create: invalid topology: " ^ msg));
  let comps = Array.of_list (Topology.components topo) in
  Array.iter
    (fun (c : Component.t) ->
      if c.fetch_width <> fetch_width then
        invalid_arg
          (Printf.sprintf "Composer.create: component %s is built for fetch width %d, not %d"
             c.name c.fetch_width fetch_width))
    comps;
  let depth = Topology.max_latency topo in
  let id_of c =
    let rec find i = if comps.(i) == c then i else find (i + 1) in
    find 0
  in
  let n_regs = ref 1 in
  let schedule (c : Component.t) srcs acc =
    let dst = !n_regs in
    incr n_regs;
    let step =
      (* [[||]] is never a row, so the first [eval] builds a list *)
      let rows () = Array.make (Array.length srcs) [||] in
      {
        comp = c;
        id = id_of c;
        stage = min c.latency depth - 1;
        srcs;
        dst;
        pin_rows = rows ();
        pin = [];
        alt_rows = rows ();
        alt = [];
      }
    in
    (dst, step :: acc)
  in
  (* [walk topo src acc] schedules [topo] over the composite in register
     [src] and returns the register holding its result. *)
  let rec walk topo src acc =
    match topo with
    | Topology.Node c -> schedule c [| src |] acc
    | Topology.Override (hi, lo) ->
      let mid, acc = walk lo src acc in
      walk hi mid acc
    | Topology.Arbitrate (sel, subs) ->
      let dsts, acc =
        List.fold_left
          (fun (dsts, acc) sub ->
            let dst, acc = walk sub src acc in
            (dst :: dsts, acc))
          ([], acc) subs
      in
      schedule sel (Array.of_list (List.rev dsts)) acc
  in
  let root, steps = walk topo 0 [] in
  let row () = Types.no_prediction ~width:fetch_width in
  let bottom = Array.make depth (row ()) in
  {
    comps;
    depth;
    width = fetch_width;
    steps = Array.of_list (List.rev steps);
    root;
    regs = Array.init !n_regs (fun r -> if r = 0 then bottom else Array.copy bottom);
    merged =
      Array.init !n_regs (fun r -> if r = 0 then [||] else Array.init depth (fun _ -> row ()));
    outs = Array.map (fun _ -> row ()) comps;
    metas = Array.map (fun (c : Component.t) -> Bits.zero c.meta_bits) comps;
  }

let components t = t.comps
let depth t = t.depth
let metas t = t.metas
let opinions t = t.outs

let rec silent (pred : Types.prediction) i =
  i >= Array.length pred || (pred.(i) == Types.empty_opinion && silent pred (i + 1))

(* Stores into the composer's buffers skip a value that is already there:
   the buffers live in the major heap, where every store of a boxed value
   pays the write barrier, and from one branch to the next most slots and
   rows do not change. *)
let set_opinion (row : Types.prediction) i v = if row.(i) != v then row.(i) <- v
let set_row (rows : Types.prediction array) s v = if rows.(s) != v then rows.(s) <- v

(* [Types.merge ~strong ~weak] into [row], with its physical fast paths
   (a merged opinion is a new record: it always differs). *)
let merge_into (row : Types.prediction) ~(strong : Types.prediction) ~(weak : Types.prediction) =
  for i = 0 to Array.length row - 1 do
    let s = strong.(i) and w = weak.(i) in
    if s == Types.empty_opinion then set_opinion row i w
    else if w == Types.empty_opinion then set_opinion row i s
    else row.(i) <- Types.merge_opinion ~strong:s ~weak:w
  done

(* Stages [s..] of the overlay of [pred] onto [src] into [dst]. [prev_w]
   and [prev_m] are the weak row and the result of the last merged stage:
   a stage whose weak row is [prev_w] again shares [prev_m]. They start as
   [pred], which is never a row. *)
let rec overlay dst merged src pred ~latency s prev_w prev_m =
  if s < Array.length src then begin
    let w = src.(s) in
    if s + 1 < latency then begin
      set_row dst s w;
      overlay dst merged src pred ~latency (s + 1) prev_w prev_m
    end
    else if w == prev_w then begin
      set_row dst s prev_m;
      overlay dst merged src pred ~latency (s + 1) prev_w prev_m
    end
    else begin
      let m = merged.(s) in
      merge_into m ~strong:pred ~weak:w;
      set_row dst s m;
      overlay dst merged src pred ~latency (s + 1) w m
    end
  end

let rec same_rows regs st rows k =
  k >= Array.length st.srcs
  || (regs.(st.srcs.(k)).(st.stage) == rows.(k) && same_rows regs st rows (k + 1))

(* The step's [predict_in]: one of its last two lists while its rows are
   physically the same (their contents are read at [predict], not
   captured), a new list otherwise. A source's row flips between two
   arrays as the components below it fall silent and speak again, hence
   two. *)
let predict_in regs st =
  if not (same_rows regs st st.pin_rows 0) then begin
    let rows = st.alt_rows and pin = st.alt in
    st.alt_rows <- st.pin_rows;
    st.alt <- st.pin;
    st.pin_rows <- rows;
    st.pin <-
      (if same_rows regs st rows 0 then pin
       else begin
         for k = 0 to Array.length st.srcs - 1 do
           rows.(k) <- regs.(st.srcs.(k)).(st.stage)
         done;
         Array.to_list rows
       end)
  end;
  st.pin

let eval t ctx =
  let steps = t.steps and regs = t.regs in
  for k = 0 to Array.length steps - 1 do
    let st = steps.(k) in
    let out = t.outs.(st.id) in
    for i = 0 to t.width - 1 do
      set_opinion out i Types.empty_opinion
    done;
    st.comp.Component.predict ctx ~pred_in:(predict_in regs st) ~out ~meta:t.metas.(st.id);
    let src = regs.(st.srcs.(0)) and dst = regs.(st.dst) in
    if silent out 0 then
      for s = 0 to t.depth - 1 do
        set_row dst s src.(s)
      done
    else overlay dst t.merged.(st.dst) src out ~latency:st.comp.Component.latency 0 out out
  done;
  regs.(t.root)
