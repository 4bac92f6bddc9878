module Bits = Cobra_util.Bits

(* One component evaluation over owned rows: the component reads [pred_in]
   (its sources' rows at its predict-in stage) and writes [out]; the step
   then writes its register's rows [dst] from its first source's rows
   [src]: a copy before its latency, its opinions merged over them from
   its latency on. *)
type step = {
  comp : Component.t;
  id : int;  (* position in [comps] *)
  latency : int;
  pred_in : Row.t array;
  src : Row.t array;
  dst : Row.t array;
}

type t = {
  comps : Component.t array;
  depth : int;
  width : int;
  steps : step array;  (* evaluation order *)
  regs : Row.t array array;  (* per register, its [depth] rows; 0 is the silent bottom *)
  root : Row.t array;
  outs : Row.t array;  (* per component id *)
  metas : Bits.t array;  (* per component id *)
  mutable live : int;
      (* the live bound of the last [eval]: every register row is silent at
         and past it *)
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
  let rows () = Array.init depth (fun _ -> Row.create ~width:fetch_width) in
  (* Registers in allocation order, newest first; [walk] returns the
     register holding its topology's composite. *)
  let regs = ref [ rows () ] in
  let steps = ref [] in
  let schedule (c : Component.t) (srcs : Row.t array list) =
    let dst = rows () in
    regs := dst :: !regs;
    let stage = min c.latency depth - 1 in
    steps :=
      {
        comp = c;
        id = id_of c;
        latency = c.latency;
        pred_in = Array.of_list (List.map (fun src -> src.(stage)) srcs);
        src = List.hd srcs;
        dst;
      }
      :: !steps;
    dst
  in
  (* [walk topo src] schedules [topo] over the composite [src], in the
     recursive semantics' evaluation order: [Override (hi, lo)] evaluates
     [lo] first, an arbitration its sub-topologies head-first, then the
     selector. *)
  let rec walk topo src =
    match topo with
    | Topology.Node c -> schedule c [ src ]
    | Topology.Override (hi, lo) -> walk hi (walk lo src)
    | Topology.Arbitrate (sel, subs) -> schedule sel (List.map (fun sub -> walk sub src) subs)
  in
  let bottom = List.hd !regs in
  let root = walk topo bottom in
  {
    comps;
    depth;
    width = fetch_width;
    steps = Array.of_list (List.rev !steps);
    regs = Array.of_list (List.rev !regs);
    root;
    outs = Array.map (fun _ -> Row.create ~width:fetch_width) comps;
    metas = Array.map (fun (c : Component.t) -> Bits.zero c.meta_bits) comps;
    live = 0;
  }

let components t = t.comps
let depth t = t.depth
let metas t = t.metas
let opinions t = t.outs

let eval t ctx =
  let live = Context.live_bound ctx t.width in
  (* Slots that were live last time and are dead now: silence them in every
     register; the steps below write only the live ones. *)
  if live < t.live then
    for r = 1 to Array.length t.regs - 1 do
      let rows = t.regs.(r) in
      for s = 0 to t.depth - 1 do
        Row.clear_from rows.(s) live t.live
      done
    done;
  t.live <- live;
  let steps = t.steps in
  for k = 0 to Array.length steps - 1 do
    let st = steps.(k) in
    let out = t.outs.(st.id) in
    Row.clear out;
    st.comp.Component.predict ctx ~pred_in:st.pred_in ~out ~meta:t.metas.(st.id);
    for s = 0 to t.depth - 1 do
      if s + 1 < st.latency then Row.blit ~src:st.src.(s) ~dst:st.dst.(s) ~len:live
      else Row.merge_into ~strong:out ~weak:st.src.(s) ~dst:st.dst.(s) ~len:live
    done
  done;
  t.root
