open Cobra
module Bits = Cobra_util.Bits
module Slab = Cobra_util.Slab

type t = {
  eval : Context.t -> Types.prediction array;
  metas : Bits.t array;
  snapshot_state : Slab.t -> unit;
  restore_state : Slab.t -> unit;
}

let stage (plan : Plan.t) =
  let width = plan.Plan.cfg.Pipeline.fetch_width in
  let depth = plan.Plan.depth in
  let bottom = Array.make depth (Types.no_prediction ~width) in
  (* Register bank: per register, the per-stage composite rows. Rows are
     either shared with the source register (pass-through stages and silent
     components — the interpreter's pointer-sharing [overlay]) or one of
     this register's preallocated merge buffers. *)
  let regs =
    Array.init plan.Plan.n_regs (fun i ->
        if i = 0 then bottom else Array.make depth bottom.(0))
  in
  let bufs =
    Array.init plan.Plan.n_regs (fun i ->
        if i = 0 then [||]
        else Array.init depth (fun _ -> Array.make width Types.empty_opinion))
  in
  let overlay_into ~dst ~latency src (pred : Types.prediction) =
    let dreg = regs.(dst) in
    if Array.for_all (fun o -> o == Types.empty_opinion) pred then
      (* silent: the composite below shows through unchanged *)
      Array.blit src 0 dreg 0 depth
    else begin
      let dbufs = bufs.(dst) in
      for s = 0 to depth - 1 do
        if s + 1 < latency then dreg.(s) <- src.(s)
        else begin
          let out = dbufs.(s) in
          let below = src.(s) in
          for i = 0 to width - 1 do
            let st = pred.(i) and w = below.(i) in
            out.(i) <-
              (if st == Types.empty_opinion then w
               else if w == Types.empty_opinion then st
               else Types.merge_opinion ~strong:st ~weak:w)
          done;
          dreg.(s) <- out
        end
      done
    end
  in
  let steps = plan.Plan.steps in
  (* The host buffers of the component contract, allocated once: one
     opinion vector per step (refilled with [empty_opinion] before each
     predict; the register bank copies opinions out of it, never the
     array) and one metadata vector per component, exactly its declared
     width. *)
  let outs = Array.map (fun _ -> Types.no_prediction ~width) steps in
  let metas = Array.map Bits.zero plan.Plan.meta_widths in
  let eval ctx =
    for i = 0 to Array.length steps - 1 do
      let out = outs.(i) in
      Array.fill out 0 width Types.empty_opinion;
      match steps.(i) with
      | Plan.Predict { comp; id; stage; latency; src; dst } ->
        comp.Component.predict ctx ~pred_in:[ regs.(src).(stage) ] ~out ~meta:metas.(id);
        overlay_into ~dst ~latency regs.(src) out
      | Plan.Select { comp; id; stage; latency; srcs; dst } ->
        let n = Array.length srcs in
        let rec gather k = if k >= n then [] else regs.(srcs.(k)).(stage) :: gather (k + 1) in
        comp.Component.predict ctx ~pred_in:(gather 0) ~out ~meta:metas.(id);
        (* the selector overrides the default (first) sub-path's composite *)
        overlay_into ~dst ~latency regs.(srcs.(0)) out
    done;
    regs.(plan.Plan.root)
  in
  let comps = plan.Plan.comps in
  let offsets = plan.Plan.comp_offsets in
  let snapshot_state slab =
    Array.iteri
      (fun i (c : Component.t) ->
        let n = Component.state_cells c in
        if n > 0 then
          Slab.blit ~src:c.Component.state ~dst:(Slab.sub slab offsets.(i) n))
      comps
  in
  let restore_state slab =
    Array.iteri
      (fun i (c : Component.t) ->
        let n = Component.state_cells c in
        if n > 0 then Component.restore c (Slab.sub slab offsets.(i) n))
      comps
  in
  { eval; metas; snapshot_state; restore_state }
