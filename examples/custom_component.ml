(* Implementing a new sub-component against the COBRA interface.

   This is the paper's core productivity claim: a predictor idea is written
   once against the component interface (predict + the event handlers +
   a declared metadata width) and the composer takes care of pipelining,
   history management, repair and integration.

   Here we write a GShare direction predictor from scratch — it is NOT part
   of the library build below on purpose; everything it needs is public
   API — and compose it over the library BTB, then compare against a plain
   bimodal table on a history-correlated workload.

   Run with: dune exec examples/custom_component.exe *)

open Cobra
module Bits = Cobra_util.Bits
module Bitpack = Cobra_util.Bitpack
module Counter = Cobra_util.Counter
module Hashing = Cobra_util.Hashing

(* --- a user-defined GShare component ------------------------------------- *)

let make_gshare ~name ~index_bits ~history_length ~fetch_width =
  let entries = 1 lsl index_bits in
  let table = Array.make entries (Counter.weakly_not_taken ~bits:2) in
  let index (ctx : Context.t) ~slot =
    Hashing.pc_index ~pc:(Context.slot_pc ctx slot) ~bits:index_bits
    lxor Hashing.folded_history ctx.Context.ghist ~len:history_length ~bits:index_bits
  in
  (* metadata: the counters read at predict time (2 bits per slot), so the
     update never re-reads the table *)
  let meta_bits = 2 * fetch_width in
  let packer = Bitpack.Packer.create ~owner:name ~width:meta_bits in
  (* The host owns both buffers: [out] is a silent row of int-encoded
     opinions and we set the direction of each slot we predict; [meta] is
     sealed from the packer. Slots past [live_slots] are never used, so we
     skip them (zero metadata). *)
  let predict ctx ~pred_in:_ ~out ~meta =
    let live = Context.live_bound ctx fetch_width in
    for slot = 0 to live - 1 do
      let c = table.(index ctx ~slot) in
      Bitpack.Packer.add packer c ~bits:2;
      Row.set_taken out slot (Counter.is_taken ~bits:2 c)
    done;
    Bitpack.Packer.add_zeros packer ~bits:(2 * (fetch_width - live));
    Bitpack.Packer.finish_into packer meta
  in
  let update (ev : Component.event) =
    for slot = 0 to fetch_width - 1 do
      let r = ev.Component.slots.(slot) in
      if Types.cond_branch r then begin
        let c = Bits.extract_int ev.Component.meta ~lo:(2 * slot) ~len:2 in
        table.(index ev.Component.ctx ~slot) <- Counter.update ~bits:2 c ~taken:r.Types.r_taken
      end
    done
  in
  Component.make ~name ~family:Component.Counter_table ~fetch_width ~latency:2 ~meta_bits
    ~storage:(Storage.make ~sram_bits:(entries * 2) ())
    ~predict ~update ()

(* --- evaluate it ------------------------------------------------------------ *)

let evaluate name topology =
  let pipeline = Pipeline.create Pipeline.default_config topology in
  let core =
    Cobra_uarch.Core.create Cobra_uarch.Config.default pipeline
      (Cobra_workloads.Kernels.correlated ())
  in
  let perf = Cobra_uarch.Core.run core ~max_insns:80_000 in
  Format.printf "%-18s accuracy %.2f%%  MPKI %.2f  IPC %.3f@." name
    (100.0 *. Cobra_uarch.Perf.branch_accuracy perf)
    (Cobra_uarch.Perf.mpki perf) (Cobra_uarch.Perf.ipc perf)

let () =
  let open Cobra_components in
  Format.printf "correlated-branch kernel (second branch repeats the first):@.";
  let bim_topo =
    Topology.over
      (Hbim.make (Hbim.default ~name:"BIM" ~indexing:Indexing.Pc))
      (Topology.node (Btb.make (Btb.default ~name:"BTB")))
  in
  evaluate "BIM_2 > BTB_2" bim_topo;
  let gshare_topo =
    Topology.over
      (make_gshare ~name:"GSHARE" ~index_bits:12 ~history_length:12 ~fetch_width:4)
      (Topology.node (Btb.make (Btb.default ~name:"BTB")))
  in
  evaluate "GSHARE_2 > BTB_2" gshare_topo;
  Format.printf
    "@.GShare resolves the correlated branch through global history; the@.\
     bimodal table cannot exceed ~75%% on this kernel.@."
