module Bits = Cobra_util.Bits
module Rng = Cobra_util.Rng
module Text = Cobra_util.Text_render
module Designs = Cobra_eval.Designs
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

let all_pass vs = List.for_all (fun v -> v.v_pass) vs
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

(* --- per-component lockstep ---------------------------------------------------- *)

(* Every zoo instance is built 4-wide; the fuzz scripts match. *)
let zoo_fetch_width = 4

exception Mismatch of string

let lockstep ?(length = 300) ?(shapes = Fuzz.all_shapes) ~seed (packed : Golden.packed) =
  let subject = Golden.packed_name packed in
  let check = "lockstep" in
  let (Golden.P { make_real; _ }) = packed in
  let events = ref 0 in
  let run_shape shape =
    (* fresh state per shape on both sides: each script stands alone *)
    let inst = Golden.instantiate packed in
    let real = make_real () in
    let sc = { Fuzz.seed; shape; length } in
    let packets = Fuzz.packets sc ~arity:inst.Golden.i_arity ~fetch_width:zoo_fetch_width in
    let where i what =
      Printf.sprintf "shape=%s packet=%d/%d seed=%d: %s (replay: cobra conform --seed %d)"
        (Fuzz.shape_name shape) i length seed what seed
    in
    List.iteri
      (fun i (pk : Fuzz.packet) ->
        incr events;
        let gp, gmeta = inst.Golden.i_predict pk.Fuzz.pk_ctx ~pred_in:pk.Fuzz.pk_pred_in in
        let rp, rmeta = real.Component.predict pk.Fuzz.pk_ctx ~pred_in:pk.Fuzz.pk_pred_in in
        if Bits.width gmeta <> real.Component.meta_bits then
          raise
            (Mismatch
               (where i
                  (Printf.sprintf "golden metadata width %d <> declared meta_bits %d"
                     (Bits.width gmeta) real.Component.meta_bits)));
        if not (Types.equal_prediction gp rp) then
          raise
            (Mismatch
               (where i
                  (Printf.sprintf "prediction mismatch: golden %s vs real %s"
                     (show_prediction gp) (show_prediction rp))));
        if not (Bits.equal gmeta rmeta) then
          raise
            (Mismatch
               (where i
                  (Printf.sprintf "metadata mismatch: golden %s vs real %s"
                     (Bits.to_string gmeta) (Bits.to_string rmeta))));
        let gev culprit =
          {
            Component.ctx = pk.Fuzz.pk_ctx;
            meta = gmeta;
            slots = pk.Fuzz.pk_slots;
            culprit;
          }
        in
        let rev culprit = { (gev culprit) with Component.meta = rmeta } in
        (match pk.Fuzz.pk_path with
        | Fuzz.Commit ->
          inst.Golden.i_fire (gev None);
          real.Component.fire (rev None);
          inst.Golden.i_update (gev None);
          real.Component.update (rev None)
        | Fuzz.Wrong_path ->
          inst.Golden.i_fire (gev None);
          real.Component.fire (rev None);
          inst.Golden.i_repair (gev None);
          real.Component.repair (rev None)
        | Fuzz.Storm c ->
          inst.Golden.i_fire (gev None);
          real.Component.fire (rev None);
          inst.Golden.i_mispredict (gev (Some c));
          real.Component.mispredict (rev (Some c));
          inst.Golden.i_update (gev None);
          real.Component.update (rev None));
        if i land 31 = 0 then
          match inst.Golden.i_invariant () with
          | Ok () -> ()
          | Error e -> raise (Mismatch (where i ("invariant violated: " ^ e))))
      packets
  in
  match List.iter run_shape shapes with
  | () ->
    pass ~check ~subject
      (Printf.sprintf "ok (%d packets across %d shapes)" !events (List.length shapes))
  | exception Mismatch m -> fail ~check ~subject m

(* --- storage accounting -------------------------------------------------------- *)

let storage_accounting (packed : Golden.packed) =
  let subject = Golden.packed_name packed in
  let check = "storage" in
  let (Golden.P { make_real; storage_bits; _ }) = packed in
  let real = make_real () in
  let actual = Storage.total_bits real.Component.storage in
  if actual = storage_bits then pass ~check ~subject (Printf.sprintf "ok (%d bits)" actual)
  else
    fail ~check ~subject
      (Printf.sprintf "component declares %d storage bits, independent formula gives %d"
         actual storage_bits)

(* --- replay-protocol steps ------------------------------------------------------ *)

module Btrace = Cobra_trace_replay.Btrace
module Replay = Cobra_trace_replay.Replay
module Sim = Replay.Sim

(* One replay-protocol transaction; the (direction, wrong) pair every
   differential below compares. *)
let step sim r =
  let wrong = Sim.step sim r in
  (Sim.last_taken_pred sim, wrong)

(* --- twin-design differential --------------------------------------------------- *)

let twin ?(length = 400) ~seed (design : Designs.t) =
  let check = "twin" in
  let subject = design.Designs.name in
  match Golden.twin_design design with
  | exception Invalid_argument m -> fail ~check ~subject m
  | golden ->
    let s_real = Sim.create `Interpreted design in
    let s_gold = Sim.create `Interpreted golden in
    let bs = Fuzz.branches { Fuzz.seed; shape = Fuzz.Mixed; length } in
    let bad = ref None in
    List.iteri
      (fun i (b : Btrace.record) ->
        if !bad = None then begin
          let tp_r, w_r = step s_real b in
          let tp_g, w_g = step s_gold b in
          if tp_r <> tp_g || w_r <> w_g then
            bad :=
              Some
                (Printf.sprintf
                   "branch %d/%d (pc=0x%x %s taken=%b) seed=%d: real taken_pred=%b wrong=%b, \
                    golden taken_pred=%b wrong=%b (replay: cobra conform --seed %d)"
                   i length b.Btrace.b_pc (kind_name b.Btrace.b_kind) b.Btrace.b_taken seed
                   tp_r w_r tp_g w_g seed)
        end)
      bs;
    (match !bad with
    | None -> pass ~check ~subject (Printf.sprintf "ok (%d branches, golden twin agrees)" length)
    | Some m -> fail ~check ~subject m)

(* --- trace replay vs the golden twin -------------------------------------------- *)

let replay_twin ?(length = 400) ~seed (design : Designs.t) =
  let check = "replay" in
  let subject = design.Designs.name in
  match Golden.twin_design design with
  | exception Invalid_argument m -> fail ~check ~subject m
  | golden ->
    let bs = Fuzz.branches { Fuzz.seed; shape = Fuzz.Mixed; length } in
    (* the replay driver over the real design, observed per branch *)
    let observed = ref [] in
    let remaining = ref bs in
    let source () =
      match !remaining with
      | [] -> None
      | r :: rest ->
        remaining := rest;
        Some r
    in
    let res =
      Replay.drive
        ~observe:(fun _ ~taken_pred ~wrong -> observed := (taken_pred, wrong) :: !observed)
        ~design:subject ~trace:"fuzz" (Sim.create `Interpreted design) source
    in
    (* arrays, not lists: per-branch List.nth here made the comparison loop
       quadratic in the stream length *)
    let replay_obs = Array.of_list (List.rev !observed) in
    let gold_obs = Array.of_list (List.map (step (Sim.create `Interpreted golden)) bs) in
    let n_replay = Array.length replay_obs in
    if n_replay <> length then
      fail ~check ~subject
        (Printf.sprintf
           "observation streams disagree on length: %d fuzzed branches, replay driver \
            observed %d"
           length n_replay)
    else begin
    let bad = ref None in
    List.iteri
      (fun i (b : Btrace.record) ->
        if !bad = None then begin
          let tp_y, w_y = replay_obs.(i) in
          let tp_g, w_g = gold_obs.(i) in
          if tp_y <> tp_g || w_y <> w_g then
            bad :=
              Some
                (Printf.sprintf
                   "branch %d/%d (pc=0x%x %s taken=%b) seed=%d: replay taken_pred=%b \
                    wrong=%b, golden twin taken_pred=%b wrong=%b"
                   i length b.Btrace.b_pc (kind_name b.Btrace.b_kind) b.Btrace.b_taken seed
                   tp_y w_y tp_g w_g)
        end)
      bs;
    let total_wrong =
      Array.fold_left (fun acc (_, w) -> if w then acc + 1 else acc) 0 replay_obs
    in
    match !bad with
    | None ->
      if res.Replay.mispredicts <> total_wrong then
        fail ~check ~subject
          (Printf.sprintf "replay counted %d mispredicts but observed %d wrong branches"
             res.Replay.mispredicts total_wrong)
      else if res.Replay.branches <> length then
        fail ~check ~subject
          (Printf.sprintf "replay consumed %d branches of %d" res.Replay.branches length)
      else
        pass ~check ~subject
          (Printf.sprintf "ok (%d branches, replay = golden twin)" length)
    | Some m -> fail ~check ~subject m
    end

(* --- metamorphic: repair restores pre-speculation state ------------------------- *)

let repair_restore ?(length = 400) ~seed (design : Designs.t) =
  let check = "repair" in
  let subject = design.Designs.name in
  let s_clean = Sim.create `Interpreted design in
  let p_dirty = Designs.pipeline design in
  let width = design.Designs.pipeline_config.Pipeline.fetch_width in
  let rng = Rng.create ~seed:(seed lxor 0x0b5a5eed) in
  let bs = Fuzz.branches { Fuzz.seed; shape = Fuzz.Mixed; length } in
  let excursions = ref 0 and repaired = ref 0 in
  let bad = ref None in
  List.iteri
    (fun i b ->
      if !bad = None then begin
        (* pending-only excursion: wrong-path packets predicted then squashed;
           their speculative history contributions must unwind completely *)
        if Rng.chance rng 0.3 then begin
          incr excursions;
          for _ = 1 to 1 + Rng.int rng 3 do
            ignore (Pipeline.predict p_dirty ~pc:(0x8000 + (16 * Rng.int rng 64)) ~max_len:1)
          done;
          Pipeline.squash_all_pending p_dirty
        end;
        let tp_c, _ = step s_clean b in
        (* dirty side, driven by hand so a fired wrong-path youngster can be
           injected ahead of a misprediction and unwound by the repair walk *)
        let tok = Pipeline.predict p_dirty ~pc:b.Btrace.b_pc ~max_len:1 in
        let stages = Pipeline.stages p_dirty tok in
        let final = (stages.(Array.length stages - 1)).(0) in
        let tp_d =
          match final.Types.o_taken with
          | Some t -> t
          | None -> Types.is_unconditional b.Btrace.b_kind
        in
        if tp_c <> tp_d then
          bad :=
            Some
              (Printf.sprintf
                 "branch %d/%d (pc=0x%x) seed=%d: clean predicts taken=%b, excursion-disturbed \
                  pipeline predicts taken=%b (replay: cobra conform --seed %d)"
                 i length b.Btrace.b_pc seed tp_c tp_d seed)
        else begin
          let target_pred = Option.value final.Types.o_target ~default:(-1) in
          let wrong =
            tp_d <> b.Btrace.b_taken
            || (b.Btrace.b_taken
               && Types.is_unconditional b.Btrace.b_kind
               && b.Btrace.b_kind <> Types.Ret
               && target_pred <> b.Btrace.b_target)
          in
          let inject = wrong && Rng.chance rng 0.5 in
          let wtok =
            if inject then Some (Pipeline.predict p_dirty ~pc:(b.Btrace.b_pc + 0x40) ~max_len:1)
            else None
          in
          let slots = Array.make width Types.no_branch in
          slots.(0) <-
            Types.resolved_branch ~kind:b.Btrace.b_kind ~taken:tp_d
              ~target:(if tp_d then b.Btrace.b_target else 0);
          let seq = Pipeline.fire p_dirty tok ~slots ~packet_len:1 in
          (match wtok with
          | None -> ()
          | Some wtok ->
            incr repaired;
            let wstages = Pipeline.stages p_dirty wtok in
            let wfinal = (wstages.(Array.length wstages - 1)).(0) in
            let wslots = Array.make width Types.no_branch in
            (match wfinal.Types.o_taken with
            | Some t ->
              wslots.(0) <-
                Types.resolved_branch ~kind:Types.Cond ~taken:t
                  ~target:
                    (if t then Option.value wfinal.Types.o_target ~default:(b.Btrace.b_pc + 0x80)
                     else 0)
            | None -> ());
            (* fired: components speculatively updated for a packet the
               imminent mispredict must walk back *)
            ignore (Pipeline.fire p_dirty wtok ~slots:wslots ~packet_len:1));
          let actual =
            Types.resolved_branch ~kind:b.Btrace.b_kind ~taken:b.Btrace.b_taken
              ~target:b.Btrace.b_target
          in
          if wrong then Pipeline.mispredict p_dirty ~seq ~slot:0 actual
          else Pipeline.resolve p_dirty ~seq ~slot:0 actual;
          Pipeline.commit p_dirty
        end
      end)
    bs;
  match !bad with
  | None ->
    pass ~check ~subject
      (Printf.sprintf "ok (%d branches, %d squashed excursions, %d repair-walked packets)"
         length !excursions !repaired)
  | Some m -> fail ~check ~subject m

(* --- snapshot/restore round-trip ------------------------------------------------ *)

let snapshot_roundtrip ?(length = 400) ~seed (design : Designs.t) =
  let check = "snapshot" in
  let subject = design.Designs.name in
  let bs = Array.of_list (Fuzz.branches { Fuzz.seed; shape = Fuzz.Mixed; length }) in
  let half = length / 2 in
  let s = Sim.create `Interpreted design in
  for i = 0 to half - 1 do
    ignore (Sim.step s bs.(i))
  done;
  let slab = Sim.snapshot s in
  (* a fresh pipeline restored from the slab must shadow the original
     bit-for-bit over the rest of the stream *)
  let s2 = Sim.create `Interpreted design in
  Sim.restore s2 slab;
  let bad = ref None in
  for i = half to length - 1 do
    if !bad = None then begin
      let b = bs.(i) in
      let tp_a, w_a = step s b in
      let tp_b, w_b = step s2 b in
      if tp_a <> tp_b || w_a <> w_b then
        bad :=
          Some
            (Printf.sprintf
               "branch %d/%d (pc=0x%x %s taken=%b) seed=%d: original taken_pred=%b wrong=%b, \
                restored twin taken_pred=%b wrong=%b"
               i length b.Btrace.b_pc (kind_name b.Btrace.b_kind) b.Btrace.b_taken seed tp_a
               w_a tp_b w_b)
    end
  done;
  if !bad = None && not (Cobra_util.Slab.equal (Sim.snapshot s) (Sim.snapshot s2)) then
    bad :=
      Some
        (Printf.sprintf
           "seed=%d: final snapshots differ — the restored pipeline's state diverged from \
            the original despite identical predictions"
           seed);
  match !bad with
  | None ->
    pass ~check ~subject
      (Printf.sprintf "ok (%d cells, restored twin tracks original over %d branches)"
         (Cobra_util.Slab.length slab) (length - half))
  | Some m -> fail ~check ~subject m

(* --- compiled twin: the staged compiler vs the interpreted pipeline -------------- *)

(* Per-branch lockstep of one interpreted pipeline against one compiled
   engine of the same (cfg, topology), fresh per shape: taken_pred, wrong,
   every component's metadata word, and the final snapshot slab must all be
   bit-identical. This is the merge gate of the compiler. *)
let compiled_lockstep ~check ~subject ~shapes ~length ~seed ~cfg make_topo =
  let events = ref 0 in
  let run_shape shape =
    let si = Sim.of_pipeline (Pipeline.create cfg (make_topo ())) in
    let sc = Sim.of_engine (Cobra_compile.Engine.create cfg (make_topo ())) in
    let bs = Fuzz.branches { Fuzz.seed; shape; length } in
    let where i what =
      Printf.sprintf
        "shape=%s branch=%d/%d seed=%d: %s (replay: cobra conform --seed %d --engine compiled)"
        (Fuzz.shape_name shape) i length seed what seed
    in
    List.iteri
      (fun i b ->
        incr events;
        let tp_i, w_i = step si b in
        let tp_c, w_c = step sc b in
        if tp_i <> tp_c || w_i <> w_c then
          raise
            (Mismatch
               (where i
                  (Printf.sprintf
                     "interpreted taken_pred=%b wrong=%b, compiled taken_pred=%b wrong=%b"
                     tp_i w_i tp_c w_c)));
        let metas_i = Sim.metas si and metas_c = Sim.metas sc in
        if Array.length metas_i <> Array.length metas_c then
          raise
            (Mismatch
               (where i
                  (Printf.sprintf "metadata arity: interpreted %d words, compiled %d"
                     (Array.length metas_i) (Array.length metas_c))));
        Array.iteri
          (fun id m ->
            if not (Bits.equal m metas_c.(id)) then
              raise
                (Mismatch
                   (where i
                      (Printf.sprintf
                         "metadata mismatch at component %d: interpreted %s, compiled %s"
                         id (Bits.to_string m) (Bits.to_string metas_c.(id))))))
          metas_i)
      bs;
    if not (Cobra_util.Slab.equal (Sim.snapshot si) (Sim.snapshot sc)) then
      raise
        (Mismatch
           (Printf.sprintf
              "shape=%s seed=%d: final snapshot slabs differ between interpreted and \
               compiled engines (replay: cobra conform --seed %d --engine compiled)"
              (Fuzz.shape_name shape) seed seed))
  in
  match List.iter run_shape shapes with
  | () ->
    pass ~check ~subject
      (Printf.sprintf "ok (%d branches across %d shapes, compiled = interpreted)" !events
         (List.length shapes))
  | exception Mismatch m -> fail ~check ~subject m

let compiled_twin ?(length = 300) ?(shapes = Fuzz.all_shapes) ~seed (design : Designs.t) =
  compiled_lockstep ~check:"compiled_twin" ~subject:design.Designs.name ~shapes ~length
    ~seed ~cfg:design.Designs.pipeline_config (fun () -> design.Designs.make ())

(* Single-component topologies over the whole zoo: each component compiles
   alone (selectors get static leaves to arbitrate, so they still see real
   incoming predictions). *)
let compiled_zoo ?(length = 300) ?(shapes = Fuzz.all_shapes) ~seed (packed : Golden.packed) =
  let subject = Golden.packed_name packed in
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
  compiled_lockstep ~check:"compiled_zoo" ~subject ~shapes ~length ~seed ~cfg make_topo

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

type engine = [ `Interpreted | `Compiled | `Both ]

let run_all ?(length = 300) ?(shapes = Fuzz.all_shapes) ?(engine = `Both) ~seed () =
  let zoo = Golden.zoo () in
  let interpreted = engine <> `Compiled and compiled = engine <> `Interpreted in
  let per_component =
    if not interpreted then []
    else
      List.concat_map (fun p -> [ lockstep ~length ~shapes ~seed p; storage_accounting p ]) zoo
  in
  let twins =
    if not interpreted then []
    else List.map (twin ~length ~seed) (Designs.all @ [ Designs.gshare_only ])
  in
  let repairs =
    if not interpreted then [] else List.map (repair_restore ~length ~seed) Designs.all
  in
  let replays =
    if not interpreted then []
    else List.map (replay_twin ~length ~seed) (Designs.all @ [ Designs.gshare_only ])
  in
  let snapshots =
    if not interpreted then []
    else List.map (snapshot_roundtrip ~length ~seed) (Designs.all @ [ Designs.gshare_only ])
  in
  let compiled_zoos =
    if not compiled then [] else List.map (compiled_zoo ~length ~shapes ~seed) zoo
  in
  let compiled_twins =
    if not compiled then []
    else List.map (compiled_twin ~length ~shapes ~seed) (Designs.all @ [ Designs.gshare_only ])
  in
  per_component @ twins @ replays @ repairs @ snapshots @ compiled_zoos @ compiled_twins
  @ table1_pins ()

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
