module Bits = Cobra_util.Bits

(* One component evaluation. Registers index the bank of per-stage
   composites; register 0 is the all-silent bottom. *)
type step = {
  comp : Component.t;
  id : int;  (* position in [comps] *)
  stage : int;  (* predict-in stage, [min latency depth - 1] *)
  srcs : int array;  (* [predict_in] registers; the step overlays [srcs.(0)] *)
  dst : int;
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
  let depth = Topology.max_latency topo in
  let id_of c =
    let rec find i = if comps.(i) == c then i else find (i + 1) in
    find 0
  in
  let n_regs = ref 1 in
  let schedule (c : Component.t) srcs acc =
    let dst = !n_regs in
    incr n_regs;
    (dst, { comp = c; id = id_of c; stage = min c.latency depth - 1; srcs; dst } :: acc)
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

(* [Types.merge ~strong ~weak] into [row], with its physical fast paths. *)
let merge_into (row : Types.prediction) ~(strong : Types.prediction) ~(weak : Types.prediction) =
  for i = 0 to Array.length row - 1 do
    let s = strong.(i) and w = weak.(i) in
    row.(i) <-
      (if s == Types.empty_opinion then w
       else if w == Types.empty_opinion then s
       else Types.merge_opinion ~strong:s ~weak:w)
  done

(* Stages [s..] of the overlay of [pred] onto [src] into [dst]. [prev_w]
   and [prev_m] are the weak row and the result of the last merged stage:
   a stage whose weak row is [prev_w] again shares [prev_m]. They start as
   [pred], which is never a row. *)
let rec overlay dst merged src pred ~latency s prev_w prev_m =
  if s < Array.length src then begin
    let w = src.(s) in
    if s + 1 < latency then begin
      dst.(s) <- w;
      overlay dst merged src pred ~latency (s + 1) prev_w prev_m
    end
    else if w == prev_w then begin
      dst.(s) <- prev_m;
      overlay dst merged src pred ~latency (s + 1) prev_w prev_m
    end
    else begin
      let m = merged.(s) in
      merge_into m ~strong:pred ~weak:w;
      dst.(s) <- m;
      overlay dst merged src pred ~latency (s + 1) w m
    end
  end

let rec pred_in regs srcs stage k =
  if k >= Array.length srcs then []
  else regs.(srcs.(k)).(stage) :: pred_in regs srcs stage (k + 1)

let eval t ctx =
  let steps = t.steps and regs = t.regs in
  for k = 0 to Array.length steps - 1 do
    let st = steps.(k) in
    let out = t.outs.(st.id) in
    Array.fill out 0 t.width Types.empty_opinion;
    st.comp.Component.predict ctx ~pred_in:(pred_in regs st.srcs st.stage 0) ~out
      ~meta:t.metas.(st.id);
    let src = regs.(st.srcs.(0)) and dst = regs.(st.dst) in
    if silent out 0 then Array.blit src 0 dst 0 t.depth
    else overlay dst t.merged.(st.dst) src out ~latency:st.comp.Component.latency 0 out out
  done;
  regs.(t.root)
