module Bits = Cobra_util.Bits
module Rng = Cobra_util.Rng
module Slab = Cobra_util.Slab
module Text = Cobra_util.Text_render
module Designs = Cobra_eval.Designs
module Btrace = Cobra_trace_replay.Btrace
module Replay = Cobra_trace_replay.Replay
module Sim = Replay.Sim
open Cobra

type verdict = {
  v_check : string;
  v_subject : string;
  v_pass : bool;
  v_detail : string;
}

let pass ~check ~subject detail =
  { v_check = check; v_subject = subject; v_pass = true; v_detail = detail }

let fail ~check ~subject detail =
  { v_check = check; v_subject = subject; v_pass = false; v_detail = detail }

let failures vs = List.filter (fun v -> not v.v_pass) vs

(* --- pretty-printing helpers -------------------------------------------------- *)

let kind_name = function
  | Types.Cond -> "cond"
  | Types.Jump -> "jump"
  | Types.Call -> "call"
  | Types.Ret -> "ret"
  | Types.Ind -> "ind"

let show_opinion (o : Types.opinion) =
  let field name show = function
    | None -> []
    | Some v -> [ Printf.sprintf "%s=%s" name (show v) ]
  in
  let parts =
    field "br" string_of_bool o.Types.o_branch
    @ field "kind" kind_name o.Types.o_kind
    @ field "taken" string_of_bool o.Types.o_taken
    @ field "target" (Printf.sprintf "0x%x") o.Types.o_target
  in
  if parts = [] then "-" else String.concat "," parts

let show_prediction (p : Types.prediction) =
  "[" ^ String.concat " | " (Array.to_list (Array.map show_opinion p)) ^ "]"

(* --- the fuzz driver ----------------------------------------------------------- *)

exception Mismatch of string

let mismatch fmt = Printf.ksprintf (fun m -> raise (Mismatch m)) fmt

(* The one fuzz loop. For each shape, [body] builds fresh state and walks
   the shape's [items] (its packets or branches), handed over as a sequence
   whose traversal moves the cursor onto the item in flight. Fresh state
   per shape is what lets [--shape S] replay a failure on its own. A
   [Mismatch], or any other exception (a component or golden model that
   raises), fails the verdict with one line naming the shape, the item, the
   seed and the command that replays it; the remaining checks still run.
   [ok n] is the passing detail after [n] items. *)
let fuzz ~check ~subject ~step ~length ~shapes ~seed ~items ~ok body =
  let shape = ref "" and index = ref 0 and seen = ref 0 in
  let at i x =
    index := i;
    incr seen;
    x
  in
  let run s =
    shape := Fuzz.shape_name s;
    index := 0;
    body (Seq.mapi at (List.to_seq (items { Fuzz.seed; shape = s; length })))
  in
  let where what =
    Printf.sprintf
      "shape=%s %s=%d/%d seed=%d: %s (replay: cobra conform --seed %d --shape %s --length %d)"
      !shape step !index length seed what seed !shape length
  in
  match List.iter run shapes with
  | () -> pass ~check ~subject (ok !seen)
  | exception Mismatch what -> fail ~check ~subject (where what)
  | exception e -> fail ~check ~subject (where ("raised " ^ Printexc.to_string e))

(* "ok (N <what> across K shapes<note>)" *)
let across ~shapes ?(note = "") what n =
  Printf.sprintf "ok (%d %s across %d shapes%s)" n what (List.length shapes) note

(* --- per-component lockstep ---------------------------------------------------- *)

(* Every zoo instance is built 4-wide; the fuzz scripts match. *)
let zoo_fetch_width = 4

let zoo_packets arity sc = Fuzz.packets sc ~arity ~fetch_width:zoo_fetch_width

(* One predict of a real component into fresh host buffers, on the
   incoming predictions encoded into rows; its opinions come back
   decoded. *)
let predict_real (c : Component.t) (ctx : Context.t) ~pred_in =
  let out = Row.create ~width:ctx.Context.fetch_width in
  let meta = Bits.zero c.Component.meta_bits in
  c.Component.predict ctx ~pred_in:(Array.of_list (List.map Row.of_prediction pred_in)) ~out
    ~meta;
  (Row.to_prediction out, meta)

(* The events a fuzz packet drives after its predict, with [meta] from that
   predict. *)
let drive (pk : Fuzz.packet) ~fire ~mispredict ~repair ~update meta =
  let ev culprit = { Component.ctx = pk.Fuzz.pk_ctx; meta; slots = pk.Fuzz.pk_slots; culprit } in
  fire (ev None);
  match pk.Fuzz.pk_path with
  | Fuzz.Commit -> update (ev None)
  | Fuzz.Wrong_path -> repair (ev None)
  | Fuzz.Storm culprit ->
    mispredict (ev (Some culprit));
    update (ev None)

let drive_real (c : Component.t) pk meta =
  drive pk ~fire:c.Component.fire ~mispredict:c.Component.mispredict
    ~repair:c.Component.repair ~update:c.Component.update meta

let lockstep ~length ?(shapes = Fuzz.all_shapes) ~seed (packed : Golden.packed) =
  let (Golden.P { model; make_real; _ }) = packed in
  fuzz ~check:"lockstep" ~subject:(Golden.packed_name packed) ~step:"packet" ~length ~shapes
    ~seed ~items:(zoo_packets model.Golden.arity) ~ok:(across ~shapes "packets")
  @@ fun packets ->
  let inst = Golden.instantiate packed in
  let real = make_real () in
  Seq.iteri
    (fun i (pk : Fuzz.packet) ->
      let gp, gmeta = inst.Golden.i_predict pk.Fuzz.pk_ctx ~pred_in:pk.Fuzz.pk_pred_in in
      let rp, rmeta = predict_real real pk.Fuzz.pk_ctx ~pred_in:pk.Fuzz.pk_pred_in in
      if Bits.width gmeta <> real.Component.meta_bits then
        mismatch "golden metadata width %d <> declared meta_bits %d" (Bits.width gmeta)
          real.Component.meta_bits;
      if not (Types.equal_prediction gp rp) then
        mismatch "prediction mismatch: golden %s vs real %s" (show_prediction gp)
          (show_prediction rp);
      if not (Bits.equal gmeta rmeta) then
        mismatch "metadata mismatch: golden %s vs real %s" (Bits.to_string gmeta)
          (Bits.to_string rmeta);
      drive pk ~fire:inst.Golden.i_fire ~mispredict:inst.Golden.i_mispredict
        ~repair:inst.Golden.i_repair ~update:inst.Golden.i_update gmeta;
      drive_real real pk rmeta;
      if i land 31 = 0 then
        match inst.Golden.i_invariant () with
        | Ok () -> ()
        | Error e -> mismatch "invariant violated: %s" e)
    packets

(* --- live slots: the dead-slot half of the context contract ------------------------ *)

(* Metamorphic: on unchanged state, predicting with [live_slots = k] must
   agree with the all-live predict on every slot [< k] — opinion and
   metadata slot word — and on every slot [>= k] either skip it (no
   opinion, zero word) or compute it anyway (the all-live opinion and
   word). Components lay their metadata out as [fetch_width] equal slot
   words. The golden lockstep always predicts all-live, and both sides of
   [compiled_twin] run the same kernel, so nothing else compares the
   dead-slot path. *)
let live_slots ~length ?(shapes = Fuzz.all_shapes) ~seed (packed : Golden.packed) =
  let (Golden.P { model; make_real; _ }) = packed in
  let fw = zoo_fetch_width in
  fuzz ~check:"live_slots" ~subject:(Golden.packed_name packed) ~step:"packet" ~length ~shapes
    ~seed ~items:(zoo_packets model.Golden.arity)
    ~ok:(fun n -> across ~shapes "predicts" (n * fw))
  @@ fun packets ->
  let real = make_real () in
  let slot_bits = real.Component.meta_bits / fw in
  let word meta slot = Bits.extract meta ~lo:(slot * slot_bits) ~len:slot_bits in
  Seq.iter
    (fun (pk : Fuzz.packet) ->
      let ctx = pk.Fuzz.pk_ctx and pred_in = pk.Fuzz.pk_pred_in in
      let all_p, all_m = predict_real real ctx ~pred_in in
      for k = 1 to fw do
        let ctx_k =
          Context.make ~pc:ctx.Context.pc ~fetch_width:fw ~live_slots:k
            ~ghist:ctx.Context.ghist ~lhists:ctx.Context.lhists ~phist:ctx.Context.phist ()
        in
        let p, m = predict_real real ctx_k ~pred_in in
        for slot = 0 to fw - 1 do
          let op = p.(slot) and w = word m slot in
          let all_op = all_p.(slot) and all_w = word all_m slot in
          let computed = Types.equal_opinion op all_op && Bits.equal w all_w in
          if
            not
              (computed
              || slot >= k
                 && Types.equal_opinion op Types.empty_opinion
                 && Bits.popcount w = 0)
          then
            mismatch "live_slots=%d slot %d: %s: opinion %s word %s, all-live opinion %s word %s"
              k slot
              (if slot < k then "live slot differs" else "dead slot neither skipped nor computed")
              (show_opinion op) (Bits.to_string w) (show_opinion all_op) (Bits.to_string all_w)
        done
      done;
      drive_real real pk all_m)
    packets

(* --- topology composition: the shared composer vs the recursive semantics ---------- *)

(* Both engines evaluate topologies through one [Composer], so the
   compiled-vs-interpreted differential cannot see its bugs: here every
   packet's per-stage composites must equal [Golden.compose] run over the
   same context and component state. Then the live-slot pass: on the same
   state, [eval] at every [live_slots = k] must match those composites on
   the slots below [k] and be silent on the rest. The packet's events then
   train the components with the all-live metadata. *)
let compose ~length ?(shapes = Fuzz.all_shapes) ~seed ~name ~fetch_width make_topo =
  fuzz ~check:"compose" ~subject:name ~step:"packet" ~length ~shapes ~seed
    ~items:(fun sc -> Fuzz.packets sc ~arity:0 ~fetch_width)
    ~ok:(across ~shapes ~note:", composer = golden" "packets")
  @@ fun packets ->
  let topo = make_topo () in
  let composer = Composer.create ~fetch_width topo in
  let comps = Composer.components composer in
  Seq.iter
    (fun (pk : Fuzz.packet) ->
      let ctx = pk.Fuzz.pk_ctx in
      let all_live = Array.map Row.to_prediction (Composer.eval composer ctx) in
      let metas = Array.map Bits.copy (Composer.metas composer) in
      let golden =
        Golden.compose ~fetch_width topo ~predict:(fun c ~pred_in ->
            fst (predict_real c ctx ~pred_in))
      in
      Array.iteri
        (fun s row ->
          if not (Types.equal_prediction row golden.(s)) then
            mismatch "Fetch-%d composite: composer %s, golden %s" (s + 1) (show_prediction row)
              (show_prediction golden.(s)))
        all_live;
      for k = 1 to fetch_width - 1 do
        let ctx_k =
          Context.make ~pc:ctx.Context.pc ~fetch_width ~live_slots:k ~ghist:ctx.Context.ghist
            ~lhists:ctx.Context.lhists ~phist:ctx.Context.phist ()
        in
        Array.iteri
          (fun s row ->
            for slot = 0 to fetch_width - 1 do
              let want =
                if slot < k then all_live.(s).(slot) else Types.empty_opinion
              in
              if not (Types.equal_opinion (Row.get row slot) want) then
                mismatch "live_slots=%d Fetch-%d slot %d: composer %s, want %s" k (s + 1) slot
                  (show_opinion (Row.get row slot)) (show_opinion want)
            done)
          (Composer.eval composer ctx_k)
      done;
      Array.iteri (fun id c -> drive_real c pk metas.(id)) comps)
    packets

(* --- storage accounting -------------------------------------------------------- *)

let storage_accounting (packed : Golden.packed) =
  let subject = Golden.packed_name packed in
  let check = "storage" in
  let (Golden.P { make_real; storage_bits; _ }) = packed in
  match Storage.total_bits (make_real ()).Component.storage with
  | actual when actual = storage_bits ->
    pass ~check ~subject (Printf.sprintf "ok (%d bits)" actual)
  | actual ->
    fail ~check ~subject
      (Printf.sprintf "component declares %d storage bits, independent formula gives %d" actual
         storage_bits)
  | exception e -> fail ~check ~subject ("raised " ^ Printexc.to_string e)

(* --- replay-protocol checks ------------------------------------------------------ *)

(* One replay-protocol transaction on a fuzzed record; the (taken_pred,
   wrong) decision every per-branch check compares. *)
let decide sim r =
  let rc = Btrace.cursor () in
  Btrace.fill rc r;
  let wrong = Sim.step sim rc in
  (Sim.last_taken_pred sim, wrong)

let differ (what_a, (tp_a, w_a)) (what_b, (tp_b, w_b)) =
  if tp_a <> tp_b || w_a <> w_b then
    mismatch "%s taken_pred=%b wrong=%b, %s taken_pred=%b wrong=%b" what_a tp_a w_a what_b tp_b
      w_b

let fuzz_branches ~check ~subject = fuzz ~check ~subject ~step:"branch" ~items:Fuzz.branches

(* --- trace replay vs the golden twin -------------------------------------------- *)

(* The real design runs through the replay driver; its golden twin steps in
   lockstep from the driver's [observe] hook. *)
let replay_twin ~length ?(shapes = Fuzz.all_shapes) ~seed (design : Designs.t) =
  fuzz_branches ~check:"replay" ~subject:design.Designs.name ~length ~shapes ~seed
    ~ok:(across ~shapes ~note:", replay = golden twin" "branches")
  @@ fun branches ->
  let gold = Sim.create `Interpreted (Golden.twin_design design) in
  let observed = ref 0 and wrongs = ref 0 in
  let observe c ~taken_pred ~wrong =
    incr observed;
    if wrong then incr wrongs;
    let wrong_g = Sim.step gold c in
    differ ("replay", (taken_pred, wrong)) ("golden twin", (Sim.last_taken_pred gold, wrong_g))
  in
  let res =
    Replay.drive ~observe ~design:design.Designs.name ~trace:"fuzz"
      (Sim.create `Interpreted design)
      (Replay.of_records (Seq.to_dispenser branches))
  in
  if res.Replay.branches <> !observed || res.Replay.mispredicts <> !wrongs then
    mismatch "replay counted %d branches and %d mispredicts, observed %d and %d"
      res.Replay.branches res.Replay.mispredicts !observed !wrongs

(* --- metamorphic: repair restores pre-speculation state ------------------------- *)

let repair_restore ~length ?(shapes = Fuzz.all_shapes) ~seed (design : Designs.t) =
  let excursions = ref 0 and repaired = ref 0 in
  fuzz_branches ~check:"repair" ~subject:design.Designs.name ~length ~shapes ~seed
    ~ok:(fun n ->
      across ~shapes
        ~note:(Printf.sprintf ", %d excursions, %d repair walks" !excursions !repaired)
        "branches" n)
  @@ fun branches ->
  let s_clean = Sim.create `Interpreted design in
  let p_dirty = Designs.pipeline design in
  let width = design.Designs.pipeline_config.Pipeline.fetch_width in
  let rng = Rng.create ~seed:(seed lxor 0x0b5a5eed) in
  Seq.iter
    (fun (b : Btrace.record) ->
      (* pending-only excursion: wrong-path packets predicted then squashed;
         their speculative history contributions must unwind completely *)
      if Rng.chance rng 0.3 then begin
        incr excursions;
        for _ = 1 to 1 + Rng.int rng 3 do
          ignore (Pipeline.predict p_dirty ~pc:(0x8000 + (16 * Rng.int rng 64)) ~max_len:1)
        done;
        Pipeline.squash_all_pending p_dirty
      end;
      let clean = decide s_clean b in
      (* dirty side, driven by hand so a fired wrong-path youngster can be
         injected ahead of a misprediction and unwound by the repair walk;
         its decision is [Sim.step]'s replay verdict, from [Types] *)
      let kind = b.Btrace.b_kind in
      let tok = Pipeline.predict p_dirty ~pc:b.Btrace.b_pc ~max_len:1 in
      let rows = Pipeline.rows p_dirty tok in
      let final = rows.(Array.length rows - 1) in
      let taken_pred =
        Types.replay_taken_pred kind ~dir_known:(Row.taken_known final 0)
          ~dir:(Row.taken final 0)
      in
      let wrong =
        Types.replay_wrong kind ~taken_pred ~target_known:(Row.target_known final 0)
          ~target_pred:(Row.target final 0) ~taken:b.Btrace.b_taken ~target:b.Btrace.b_target
      in
      differ ("clean pipeline", clean) ("excursion-disturbed pipeline", (taken_pred, wrong));
      let target = if b.Btrace.b_target >= 0 then b.Btrace.b_target else 0 in
      let wtok =
        if wrong && Rng.chance rng 0.5 then
          Some (Pipeline.predict p_dirty ~pc:(b.Btrace.b_pc + 0x40) ~max_len:1)
        else None
      in
      let slots = Array.make width Types.no_branch in
      slots.(0) <-
        Types.resolved_branch ~kind ~taken:taken_pred ~target:(if taken_pred then target else 0);
      let seq = Pipeline.fire p_dirty tok ~slots ~packet_len:1 in
      Option.iter
        (fun wtok ->
          incr repaired;
          let wstages = Pipeline.stages p_dirty wtok in
          let wfinal = (wstages.(Array.length wstages - 1)).(0) in
          let wslots = Array.make width Types.no_branch in
          Option.iter
            (fun t ->
              wslots.(0) <-
                Types.resolved_branch ~kind:Types.Cond ~taken:t
                  ~target:
                    (if t then Option.value wfinal.Types.o_target ~default:(b.Btrace.b_pc + 0x80)
                     else 0))
            wfinal.Types.o_taken;
          (* fired: components speculatively updated for a packet the
             imminent mispredict must walk back *)
          ignore (Pipeline.fire p_dirty wtok ~slots:wslots ~packet_len:1))
        wtok;
      let actual = Types.resolved_branch ~kind ~taken:b.Btrace.b_taken ~target in
      if wrong then Pipeline.mispredict p_dirty ~seq ~slot:0 actual
      else Pipeline.resolve p_dirty ~seq ~slot:0 actual;
      Pipeline.commit p_dirty)
    branches

(* --- snapshot/restore round-trip ------------------------------------------------ *)

(* Half-way through each shape the design's snapshot is restored into a
   fresh twin, which must then shadow the original bit-for-bit. *)
let snapshot_roundtrip ~length ?(shapes = Fuzz.all_shapes) ~seed (design : Designs.t) =
  let half = length / 2 in
  let cells = ref 0 and tracked = ref 0 in
  fuzz_branches ~check:"snapshot" ~subject:design.Designs.name ~length ~shapes ~seed
    ~ok:(fun _ ->
      across ~shapes ~note:(Printf.sprintf ", twin restored from %d cells" !cells) "branches"
        !tracked)
  @@ fun branches ->
  let s = Sim.create `Interpreted design and twin = Sim.create `Interpreted design in
  Seq.iteri
    (fun i b ->
      if i = half then begin
        let slab = Sim.snapshot s in
        cells := Slab.length slab;
        Sim.restore twin slab
      end;
      let original = decide s b in
      if i >= half then begin
        incr tracked;
        differ ("original", original) ("restored twin", decide twin b)
      end)
    branches;
  if not (Slab.equal (Sim.snapshot s) (Sim.snapshot twin)) then
    mismatch "final snapshot slabs differ between the original and the restored twin"

(* --- compiled twin: the staged compiler vs the interpreted pipeline -------------- *)

(* Per-branch lockstep of one interpreted pipeline against one compiled
   engine of the same (cfg, topology), fresh per shape: taken_pred, wrong,
   every component's metadata word, and the final snapshot slab must all be
   bit-identical. This is the merge gate of the compiler. *)
let compiled_lockstep ~check ~subject ~length ~shapes ~seed ~cfg make_topo =
  fuzz_branches ~check ~subject ~length ~shapes ~seed
    ~ok:(across ~shapes ~note:", compiled = interpreted" "branches")
  @@ fun branches ->
  let si = Sim.of_pipeline (Pipeline.create cfg (make_topo ())) in
  let sc = Sim.of_engine (Cobra_compile.Engine.create cfg (make_topo ())) in
  Seq.iter
    (fun b ->
      let interpreted = decide si b in
      differ ("interpreted", interpreted) ("compiled", decide sc b);
      let metas_i = Sim.metas si and metas_c = Sim.metas sc in
      if Array.length metas_i <> Array.length metas_c then
        mismatch "metadata arity: interpreted %d words, compiled %d" (Array.length metas_i)
          (Array.length metas_c);
      Array.iteri
        (fun id m ->
          if not (Bits.equal m metas_c.(id)) then
            mismatch "metadata mismatch at component %d: interpreted %s, compiled %s" id
              (Bits.to_string m) (Bits.to_string metas_c.(id)))
        metas_i)
    branches;
  if not (Slab.equal (Sim.snapshot si) (Sim.snapshot sc)) then
    mismatch "final snapshot slabs differ between interpreted and compiled engines"

let compiled_twin ~length ?(shapes = Fuzz.all_shapes) ~seed (design : Designs.t) =
  compiled_lockstep ~check:"compiled_twin" ~subject:design.Designs.name ~length ~shapes ~seed
    ~cfg:design.Designs.pipeline_config design.Designs.make

(* Single-component topologies over the whole zoo: each component compiles
   alone (selectors get static leaves to arbitrate, so they still see real
   incoming predictions). *)
let compiled_zoo ~length ?(shapes = Fuzz.all_shapes) ~seed (packed : Golden.packed) =
  let (Golden.P { model; make_real; _ }) = packed in
  let static_sub taken =
    Cobra_components.Static_pred.always
      ~name:(if taken then "conform-static-t" else "conform-static-nt")
      ~taken ~fetch_width:zoo_fetch_width ()
  in
  let make_topo () =
    if model.Golden.arity <= 1 then Topology.node (make_real ())
    else
      Topology.arbitrate (make_real ())
        (List.init model.Golden.arity (fun i -> Topology.node (static_sub (i land 1 = 1))))
  in
  let cfg = { Pipeline.default_config with Pipeline.fetch_width = zoo_fetch_width } in
  compiled_lockstep ~check:"compiled_zoo" ~subject:(Golden.packed_name packed) ~length ~shapes
    ~seed ~cfg make_topo

(* --- Table-I storage pins ------------------------------------------------------- *)

let table1_pins () =
  let pins = [ ("Tourney", 209584, "6.3"); ("B2", 207520, "6.5"); ("TAGE-L", 403024, "29.4") ] in
  List.concat_map
    (fun (name, total_bits, dir_kb) ->
      let d = Designs.find name in
      let pl = Designs.pipeline d in
      let actual = Storage.total_bits (Pipeline.storage pl) in
      let bits_v =
        if actual = total_bits then
          pass ~check:"table1" ~subject:name (Printf.sprintf "ok (total %d bits)" actual)
        else
          fail ~check:"table1" ~subject:name
            (Printf.sprintf "pipeline storage %d bits, Table-I pin expects %d" actual total_bits)
      in
      let actual_kb = Printf.sprintf "%.1f" (Designs.direction_state_kb d) in
      let kb_v =
        if String.equal actual_kb dir_kb then
          pass ~check:"table1" ~subject:(name ^ " dir-state")
            (Printf.sprintf "ok (%s KB)" actual_kb)
        else
          fail ~check:"table1" ~subject:(name ^ " dir-state")
            (Printf.sprintf "direction state %s KB, Table-I pin expects %s" actual_kb dir_kb)
      in
      [ bits_v; kb_v ])
    pins

(* --- top level ------------------------------------------------------------------ *)

let run_all ?(length = 300) ?(shapes = Fuzz.all_shapes) ~seed () =
  let zoo = Golden.zoo () in
  let per_component =
    List.concat_map (fun p -> [ lockstep ~length ~shapes ~seed p; storage_accounting p ]) zoo
  in
  let live = List.map (live_slots ~length ~shapes ~seed) zoo in
  let composes =
    List.map
      (fun (d : Designs.t) ->
        compose ~length ~shapes ~seed ~name:d.Designs.name
          ~fetch_width:d.Designs.pipeline_config.Pipeline.fetch_width d.Designs.make)
      Designs.named
  in
  let replays = List.map (replay_twin ~length ~shapes ~seed) Designs.named in
  let repairs = List.map (repair_restore ~length ~shapes ~seed) Designs.all in
  let snapshots = List.map (snapshot_roundtrip ~length ~shapes ~seed) Designs.named in
  let compiled_zoos = List.map (compiled_zoo ~length ~shapes ~seed) zoo in
  let compiled_twins = List.map (compiled_twin ~length ~shapes ~seed) Designs.named in
  per_component @ live @ composes @ replays @ repairs @ snapshots @ compiled_zoos
  @ compiled_twins @ table1_pins ()

let render vs =
  let rows =
    List.map
      (fun v ->
        [
          v.v_check;
          v.v_subject;
          (if v.v_pass then "PASS" else "FAIL");
          (if String.length v.v_detail > 72 then String.sub v.v_detail 0 69 ^ "..."
           else v.v_detail);
        ])
      vs
  in
  let nfail = List.length (failures vs) in
  let title =
    if nfail = 0 then Printf.sprintf "conformance: %d checks, all passing" (List.length vs)
    else Printf.sprintf "conformance: %d checks, %d FAILING" (List.length vs) nfail
  in
  Text.table ~title ~header:[ "check"; "subject"; "verdict"; "detail" ] ~rows ()

let counterexample vs =
  match failures vs with
  | [] -> None
  | fs ->
    let blocks =
      List.map
        (fun v -> Printf.sprintf "%s/%s:\n  %s" v.v_check v.v_subject v.v_detail)
        fs
    in
    Some (String.concat "\n\n" blocks ^ "\n")
