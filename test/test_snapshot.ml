(* Flat-state engine certification: [restore (snapshot t)] must be
   undetectable. Per real component and per reference design, a twin
   restored from a mid-stream snapshot must track the original
   bit-for-bit over the rest of a fuzzed stream; the replay checkpoints
   built on top (warmup reuse, the branch cap's stream boundary) must
   reproduce the single-pass counters exactly. Plus regression tests for
   the PR's bugfix sites (raising env knobs, ragged figure rows). *)

open Cobra
module Bits = Cobra_util.Bits
module Slab = Cobra_util.Slab
module Env = Cobra_util.Env
module Golden = Cobra_conformance.Golden
module Fuzz = Cobra_conformance.Fuzz
module Crosscheck = Cobra_conformance.Crosscheck
module Designs = Cobra_eval.Designs
module Replay = Cobra_trace_replay.Replay
module Reader = Cobra_trace_replay.Reader
module Writer = Cobra_trace_replay.Writer
module Btrace = Cobra_trace_replay.Btrace

let seed = 0x5eed9
let width = 4

let assert_verdict (v : Crosscheck.verdict) =
  if not v.Crosscheck.v_pass then
    Alcotest.failf "%s/%s: %s" v.Crosscheck.v_check v.Crosscheck.v_subject
      v.Crosscheck.v_detail

(* --- per-component: restore (snapshot t) mid-script -------------------------- *)

let drive_packet (c : Component.t) (pk : Fuzz.packet) =
  let p = Types.no_prediction ~width in
  let meta = Bits.zero c.Component.meta_bits in
  c.Component.predict pk.Fuzz.pk_ctx ~pred_in:pk.Fuzz.pk_pred_in ~out:p ~meta;
  let ev culprit =
    { Component.ctx = pk.Fuzz.pk_ctx; meta; slots = pk.Fuzz.pk_slots; culprit }
  in
  (match pk.Fuzz.pk_path with
  | Fuzz.Commit ->
    c.Component.fire (ev None);
    c.Component.update (ev None)
  | Fuzz.Wrong_path ->
    c.Component.fire (ev None);
    c.Component.repair (ev None)
  | Fuzz.Storm culprit ->
    c.Component.fire (ev None);
    c.Component.mispredict (ev (Some culprit));
    c.Component.update (ev None));
  (p, meta)

let test_component_snapshot packed () =
  let (Golden.P { make_real; _ }) = packed in
  let inst = Golden.instantiate packed in
  let packets =
    Fuzz.packets
      { Fuzz.seed; shape = Fuzz.Mixed; length = 240 }
      ~arity:inst.Golden.i_arity ~fetch_width:width
  in
  let half = 120 in
  let a = make_real () in
  List.iteri (fun i pk -> if i < half then ignore (drive_packet a pk)) packets;
  let b = make_real () in
  Component.restore b (Component.snapshot a);
  List.iteri
    (fun i pk ->
      if i >= half then begin
        let pa, ma = drive_packet a pk in
        let pb, mb = drive_packet b pk in
        if not (Types.equal_prediction pa pb) then
          Alcotest.failf "%s: packet %d: prediction diverged after restore"
            a.Component.name i;
        if not (Bits.equal ma mb) then
          Alcotest.failf "%s: packet %d: metadata diverged after restore"
            a.Component.name i
      end)
    packets;
  Alcotest.(check bool)
    "final state slabs identical" true
    (Slab.equal (Component.snapshot a) (Component.snapshot b))

(* --- per-design: whole-pipeline snapshot round-trip --------------------------- *)

let test_design_snapshot design () =
  assert_verdict (Crosscheck.snapshot_roundtrip ~length:250 ~seed design)

let test_snapshot_guards () =
  let d = Designs.gshare_only in
  let p = Designs.pipeline d in
  ignore (Pipeline.predict p ~pc:0x4000 ~max_len:1);
  Alcotest.check_raises "snapshot of a non-quiesced pipeline"
    (Invalid_argument
       "Pipeline.snapshot: pipeline not quiesced (1 pending packets, 0 in-flight entries)")
    (fun () -> ignore (Pipeline.snapshot p));
  let p2 = Designs.pipeline d in
  (match Pipeline.restore p2 (Slab.create 3) with
  | () -> Alcotest.fail "restore accepted a wrong-size slab"
  | exception Invalid_argument _ -> ());
  (* a fresh snapshot restores into a fresh pipeline as a no-op *)
  let p3 = Designs.pipeline d in
  Pipeline.restore p3 (Pipeline.snapshot p2);
  Alcotest.(check bool)
    "fresh pipelines have identical snapshots" true
    (Slab.equal (Pipeline.snapshot p2) (Pipeline.snapshot p3))

(* --- replay checkpoints over a real trace file -------------------------------- *)

let fuzz_records length =
  List.map
    (fun r -> { r with Btrace.b_gap = 2 })
    (Fuzz.branches { Fuzz.seed; shape = Fuzz.Mixed; length })

let with_trace length f =
  let path = Filename.temp_file "cobra_snapshot_test" ".cobt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Writer.save ~format:Btrace.Binary path (fuzz_records length);
      f path)

let test_reader_seek () =
  with_trace 50 (fun path ->
      Reader.with_file path (fun rd ->
          for _ = 1 to 10 do
            ignore (Reader.next rd)
          done;
          let off = Reader.offset rd in
          let r1 = Option.get (Reader.next rd) in
          Reader.seek rd off;
          let r2 = Option.get (Reader.next rd) in
          Alcotest.(check int) "same pc after seek" r1.Btrace.b_pc r2.Btrace.b_pc;
          Alcotest.(check bool) "same dir after seek" r1.Btrace.b_taken r2.Btrace.b_taken;
          Alcotest.(check int) "offset restored" (Reader.offset rd) (Reader.offset rd)))

(* A windowed sweep on checkpoints, per design and engine: the warmup's
   checkpoint restored once per sweep point, then a 0.6n warmup and 8
   windows of 0.05n, each restored into a fresh simulator from the previous
   window's checkpoint. Every window must count exactly what an interpreted
   replay from the top of the trace counts over the same records. *)
let test_warmup_restore_window () =
  let len = 400 and warm = 240 and window = 20 in
  with_trace len (fun path ->
      List.iter
        (fun (d : Designs.t) ->
          let design = d.Designs.name in
          let replay sim rd branches = Replay.warmup ~branches ~design ~trace:path sim rd in
          let from_top skip =
            Reader.with_file path (fun rd ->
                let sim = Replay.Sim.create `Interpreted d in
                ignore (replay sim rd skip);
                snd (replay sim rd window))
          in
          List.iter
            (fun engine ->
              let check_window i r =
                Alcotest.(check bool)
                  (Printf.sprintf "%s/%s: window %d matches the oracle" design
                     (Replay.engine_name engine) i)
                  true
                  (Replay.counters_equal r (from_top (warm + (i * window))))
              in
              Reader.with_file path (fun rd ->
                  let sim = Replay.Sim.create engine d in
                  let ck = ref (fst (replay sim rd warm)) in
                  for _point = 1 to 3 do
                    Replay.restore sim rd !ck;
                    check_window 0 (snd (replay sim rd window))
                  done;
                  for i = 0 to ((len - warm) / window) - 1 do
                    let sim = Replay.Sim.create engine d in
                    Replay.restore sim rd !ck;
                    let next, r = replay sim rd window in
                    ck := next;
                    check_window i r
                  done))
            [ `Interpreted; `Compiled ])
        [ Designs.tourney; Designs.tage_l ])

(* The branch cap is checked before a record is read: a capped replay on
   either engine leaves the reader on the boundary record, which is what
   lets a checkpoint resume exactly where the warmup stopped. *)
let test_cap_stops_on_boundary () =
  let d = Designs.tourney and n = 37 in
  with_trace 100 (fun path ->
      let records = Array.of_list (fuzz_records 100) in
      List.iter
        (fun engine ->
          Reader.with_file path (fun rd ->
              let r =
                Replay.drive ~max_branches:n ~design:d.Designs.name ~trace:path
                  (Replay.Sim.create engine d) (Reader.read rd)
              in
              let what = Replay.engine_name engine in
              Alcotest.(check int) (what ^ ": capped branch count") n r.Replay.branches;
              match Reader.next rd with
              | Some next ->
                Alcotest.(check string)
                  (what ^ ": next record is record n")
                  (Btrace.show_record records.(n)) (Btrace.show_record next)
              | None -> Alcotest.failf "%s: reader exhausted after %d records" what n))
        [ `Interpreted; `Compiled ])

(* --- bugfix regressions -------------------------------------------------------- *)

let contains ~needle hay =
  let nh = String.length hay and nn = String.length needle in
  nn = 0
  ||
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let expect_failure ~substring f =
  match f () with
  | _ -> Alcotest.failf "expected Failure mentioning %S" substring
  | exception Failure m ->
    if not (contains ~needle:substring m) then
      Alcotest.failf "Failure %S does not mention %S" m substring

(* [f] under the given environment, restoring the previous values (an
   unset variable comes back empty, which every knob reads as unset). *)
let with_env = Env.with_set

let test_env_int_knob () =
  let warm () = Env.(get warm_cache) in
  with_env [ ("COBRA_WARM_CACHE", "banana") ] (fun () ->
      expect_failure ~substring:"COBRA_WARM_CACHE" warm;
      expect_failure ~substring:"banana" warm);
  with_env [ ("COBRA_WARM_CACHE", "0") ] (fun () ->
      expect_failure ~substring:"below the minimum" warm);
  with_env [ ("COBRA_WARM_CACHE", " 42 ") ] (fun () ->
      Alcotest.(check int) "trimmed integer parses" 42 (warm ()));
  with_env [ ("COBRA_WARM_CACHE", "") ] (fun () ->
      Alcotest.(check int) "unset means default" 64 (warm ()))

(* COBRA_CACHE took only the exact string "0" as off: "false" and "off"
   left the cache on. *)
let test_cache_knob () =
  List.iter
    (fun (v, on) ->
      with_env [ ("COBRA_CACHE", v) ] (fun () ->
          Alcotest.(check bool) (Printf.sprintf "COBRA_CACHE=%S" v) on
            (Cobra_runner.Cache.enabled ())))
    [
      ("0", false); ("false", false); ("OFF", false); ("no", false); ("1", true);
      (" true ", true); ("yes", true); ("on", true); ("", true);
    ];
  with_env [ ("COBRA_CACHE", "nope") ] (fun () ->
      expect_failure ~substring:"COBRA_CACHE" Cobra_runner.Cache.enabled;
      expect_failure ~substring:"nope" Cobra_runner.Cache.enabled)

(* COBRA_STATS took any unrecognised value, a typo included, as on. *)
let test_stats_knob () =
  let stats () = Env.(get stats) in
  with_env [ ("COBRA_STATS", "ture") ] (fun () -> expect_failure ~substring:"COBRA_STATS" stats);
  with_env [ ("COBRA_STATS", "off") ] (fun () ->
      Alcotest.(check bool) "COBRA_STATS=off" false (stats ()))

(* COBRA_PROGRESS ignored "true" and "false" (falling back to tty
   detection). The live line is the one thing it controls: [finish] prints
   it to stderr only when live. *)
let test_progress_knob () =
  let stderr_of f =
    let path = Filename.temp_file "cobra_progress" ".err" in
    let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
    let saved = Unix.dup Unix.stderr in
    Unix.dup2 fd Unix.stderr;
    Fun.protect f ~finally:(fun () ->
        flush stderr;
        Unix.dup2 saved Unix.stderr;
        Unix.close saved;
        Unix.close fd);
    let out = In_channel.with_open_text path In_channel.input_all in
    Sys.remove path;
    out
  in
  let live v =
    with_env [ ("COBRA_PROGRESS", v) ] (fun () ->
        stderr_of (fun () ->
            Cobra_runner.Progress.finish (Cobra_runner.Progress.create ~total:0 ()))
        <> "")
  in
  Alcotest.(check bool) "COBRA_PROGRESS=true" true (live "true");
  Alcotest.(check bool) "COBRA_PROGRESS=false" false (live "false");
  with_env [ ("COBRA_PROGRESS", "maybe") ] (fun () ->
      expect_failure ~substring:"COBRA_PROGRESS" (fun () ->
          Cobra_runner.Progress.create ~total:0 ()))

let test_default_insns_raises () =
  with_env [ ("COBRA_INSNS", "1e6") ] (fun () ->
      expect_failure ~substring:"COBRA_INSNS" Cobra_eval.Experiment.default_insns);
  with_env [ ("COBRA_INSNS", "12345") ] (fun () ->
      Alcotest.(check int) "valid override" 12_345 (Cobra_eval.Experiment.default_insns ()))

let test_harmonic_row () =
  let series = [ "A"; "B" ] in
  let _, means =
    Cobra_eval.Figures.harmonic_row ~series [ ("w1", [ 2.0; 4.0 ]); ("w2", [ 2.0; 4.0 ]) ]
  in
  Alcotest.(check int) "one mean per series" 2 (List.length means);
  Alcotest.(check (float 1e-9)) "harmonic mean" 2.0 (List.nth means 0);
  expect_failure ~substring:"w2" (fun () ->
      Cobra_eval.Figures.harmonic_row ~series [ ("w1", [ 2.0; 4.0 ]); ("w2", [ 2.0 ]) ])

let test_replay_twin_arrays () =
  (* the replay/golden comparison walks arrays; the check must still pass
     end to end on a reference design *)
  assert_verdict (Crosscheck.replay_twin ~length:200 ~seed Designs.b2)

(* --- registration --------------------------------------------------------------- *)

let () =
  let component_cases =
    List.map
      (fun packed ->
        Alcotest.test_case
          (Printf.sprintf "component %s" (Golden.packed_name packed))
          `Quick (test_component_snapshot packed))
      (Golden.zoo ())
  in
  let design_cases =
    List.map
      (fun (d : Designs.t) ->
        Alcotest.test_case
          (Printf.sprintf "design %s" d.Designs.name)
          `Quick (test_design_snapshot d))
      Designs.named
  in
  Alcotest.run "snapshot"
    [
      ("component_roundtrip", component_cases);
      ("design_roundtrip", design_cases);
      ( "pipeline_guards",
        [ Alcotest.test_case "quiesce and size guards" `Quick test_snapshot_guards ] );
      ( "replay_checkpoints",
        [
          Alcotest.test_case "reader seek" `Quick test_reader_seek;
          Alcotest.test_case "warmup restore window" `Quick test_warmup_restore_window;
          Alcotest.test_case "branch cap stops on the boundary" `Quick
            test_cap_stops_on_boundary;
        ] );
      ( "bugfix_regressions",
        [
          Alcotest.test_case "env int knobs raise" `Quick test_env_int_knob;
          Alcotest.test_case "COBRA_CACHE spellings" `Quick test_cache_knob;
          Alcotest.test_case "COBRA_STATS refuses a typo" `Quick test_stats_knob;
          Alcotest.test_case "COBRA_PROGRESS true and false" `Quick test_progress_knob;
          Alcotest.test_case "default_insns raises" `Quick test_default_insns_raises;
          Alcotest.test_case "harmonic row ragged cell" `Quick test_harmonic_row;
          Alcotest.test_case "replay twin over arrays" `Quick test_replay_twin_arrays;
        ] );
    ]
