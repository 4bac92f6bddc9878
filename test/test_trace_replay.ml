(* The trace-replay frontend, end to end:

   - {!Btrace} codec round-trips (binary record-level, text line-level) and
     a Prop property that the text and binary encodings of the same random
     record list load back identically;
   - {!Reader} decode diagnostics: truncated, corrupt and malformed inputs
     are rejected with a [Failure] naming the file and the byte offset
     (binary) or line number (text) of the corruption, and never take the
     process down;
   - streaming invariance: a 4 KiB window replays a fixture to exactly the
     same records as the default 64 KiB window;
   - pinned fixtures: the two committed traces under test/fixtures decode to
     known record/instruction totals, and replaying them through the
     reference designs reproduces pinned mispredict counters;
   - replay-vs-pipeline equality: exporting a workload to a trace and
     replaying it gives counters bit-identical to {!Software_model}
     driving the same composed pipeline over the original stream;
   - {!Serve}: protocol handling through [handle_line] (ping, replay,
     cached repeat, malformed request, unknown op, shutdown) plus a live
     daemon on a Unix socket answering concurrent clients. *)

open Cobra_trace_replay
module Designs = Cobra_eval.Designs
module Suite = Cobra_workloads.Suite

let check = Alcotest.check

(* Designs.find covers the paper's Table I designs; GShare-only is the
   extra single-component reference the serve daemon also accepts. *)
let find_design name =
  if String.equal name Designs.gshare_only.Designs.name then Designs.gshare_only
  else Designs.find name

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let check_contains what haystack needle =
  if not (contains haystack needle) then
    Alcotest.failf "%s: expected %S inside %S" what needle haystack

let with_temp ?(suffix = ".trace") f =
  let path = Filename.temp_file "cobra_test" suffix in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let expect_failure what f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Failure, got a value" what
  | exception Failure msg -> msg

(* --- codec ----------------------------------------------------------------- *)

let sample_records =
  [
    Btrace.cond ~pc:0x4000 ~taken:true ();
    Btrace.cond ~pc:0x4004 ~taken:false ~gap:7 ();
    Btrace.cond ~pc:0x7ffc ~taken:true ~target:0x4000 ~gap:2 ();
    { Btrace.b_pc = 0x10234; b_taken = true; b_kind = Cobra.Types.Jump; b_target = 0x400; b_gap = 0 };
    { Btrace.b_pc = 0xdeadbe; b_taken = true; b_kind = Cobra.Types.Call; b_target = 0x8000; b_gap = 1000 };
    { Btrace.b_pc = 0x44; b_taken = true; b_kind = Cobra.Types.Ret; b_target = Btrace.no_target; b_gap = 3 };
    { Btrace.b_pc = 0x9c; b_taken = true; b_kind = Cobra.Types.Ind; b_target = 0x123456789; b_gap = 12 };
  ]

let binary_record_roundtrip () =
  let buf = Buffer.create 64 in
  List.iter (Btrace.encode_record buf) sample_records;
  let bytes = Buffer.to_bytes buf in
  let limit = Bytes.length bytes in
  let pos = ref 0 in
  let decoded = ref [] in
  while !pos < limit do
    match Btrace.decode_record bytes ~pos:!pos ~limit ~abs_offset:!pos with
    | Btrace.Need_more -> Alcotest.fail "Need_more on a complete buffer"
    | Btrace.Decoded (r, consumed) ->
      decoded := r :: !decoded;
      pos := !pos + consumed
  done;
  let decoded = List.rev !decoded in
  check Alcotest.int "record count" (List.length sample_records) (List.length decoded);
  List.iter2
    (fun a b ->
      if not (Btrace.equal_record a b) then
        Alcotest.failf "binary round-trip mismatch: %s vs %s" (Btrace.show_record a)
          (Btrace.show_record b))
    sample_records decoded

let binary_need_more () =
  let buf = Buffer.create 64 in
  Btrace.encode_record buf (List.nth sample_records 4);
  let bytes = Buffer.to_bytes buf in
  let full = Bytes.length bytes in
  (* every strict prefix of a record must ask for more, never mis-decode *)
  for limit = 0 to full - 1 do
    match Btrace.decode_record bytes ~pos:0 ~limit ~abs_offset:0 with
    | Btrace.Need_more -> ()
    | Btrace.Decoded _ -> Alcotest.failf "decoded from a %d/%d-byte prefix" limit full
  done

let text_line_roundtrip () =
  List.iter
    (fun r ->
      let line = Btrace.record_to_line r in
      match Btrace.record_of_line line with
      | None -> Alcotest.failf "line %S parsed as a comment" line
      | Some r' ->
        if not (Btrace.equal_record r r') then
          Alcotest.failf "text round-trip mismatch on %S" line)
    sample_records;
  check Alcotest.bool "comment skipped" true (Btrace.record_of_line "# note" = None);
  check Alcotest.bool "blank skipped" true (Btrace.record_of_line "   " = None)

let validate_rejects () =
  let bad = { (Btrace.cond ~pc:0x40 ~taken:true ()) with Btrace.b_pc = -4 } in
  (match Btrace.validate bad with
  | Ok () -> Alcotest.fail "negative pc accepted"
  | Error _ -> ());
  (match Btrace.encode_record (Buffer.create 8) bad with
  | () -> Alcotest.fail "encode_record accepted a negative pc"
  | exception Invalid_argument _ -> ());
  match Btrace.record_to_line bad with
  | _ -> Alcotest.fail "record_to_line accepted a negative pc"
  | exception Invalid_argument _ -> ()

(* --- writer/reader file round-trips ---------------------------------------- *)

let file_roundtrip format () =
  with_temp (fun path ->
      Writer.save ~format path sample_records;
      let loaded = Reader.load path in
      check Alcotest.int "count" (List.length sample_records) (List.length loaded);
      List.iter2
        (fun a b ->
          if not (Btrace.equal_record a b) then
            Alcotest.failf "file round-trip mismatch: %s vs %s" (Btrace.show_record a)
              (Btrace.show_record b))
        sample_records loaded;
      let detected = Reader.detect path in
      match (format, detected) with
      | Btrace.Binary, Reader.Branch_binary | Btrace.Text, Reader.Branch_text -> ()
      | _ -> Alcotest.fail "detect mis-sniffed the written file")

let detect_other () =
  with_temp ~suffix:".txt" (fun path ->
      let oc = open_out path in
      output_string oc "this is not a branch trace\n";
      close_out oc;
      check Alcotest.bool "garbage is Other" true (Reader.detect path = Reader.Other));
  check Alcotest.bool "missing path is Other" true
    (Reader.detect "/nonexistent/trace.bin" = Reader.Other)

(* --- decoder diagnostics ---------------------------------------------------- *)

let write_bytes path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let truncated_binary () =
  with_temp (fun path ->
      let buf = Buffer.create 32 in
      Btrace.encode_record buf (List.nth sample_records 4);
      let body = Buffer.contents buf in
      (* magic + one full record + half of a second one *)
      write_bytes path (Btrace.magic ^ body ^ String.sub body 0 (String.length body - 2));
      let msg =
        expect_failure "truncated trace" (fun () ->
            Reader.fold path ~init:0 ~f:(fun n _ -> n + 1))
      in
      check_contains "truncation message names the file" msg (Filename.basename path);
      check_contains "truncation message names the offset" msg "byte")

let corrupt_tag () =
  with_temp (fun path ->
      (* tag byte with reserved bit 6 set *)
      write_bytes path (Btrace.magic ^ "\x41\x10");
      let msg =
        expect_failure "reserved tag bits" (fun () ->
            Reader.fold path ~init:0 ~f:(fun n _ -> n + 1))
      in
      check_contains "corrupt-tag message" msg "byte")

let varint_overflow () =
  with_temp (fun path ->
      (* tag 0x01 (taken cond), then 10 continuation bytes: > 63 bits of pc *)
      write_bytes path (Btrace.magic ^ "\x01" ^ String.make 10 '\xff');
      let msg =
        expect_failure "varint overflow" (fun () ->
            Reader.fold path ~init:0 ~f:(fun n _ -> n + 1))
      in
      check_contains "overflow message" msg "byte")

let nonminimal_varint () =
  with_temp (fun path ->
      (* tag 0x01 (taken cond), pc encoded as 0x80 0x00: a redundant
         trailing zero continuation — a value the writer never emits *)
      write_bytes path (Btrace.magic ^ "\x01\x80\x00");
      let msg =
        expect_failure "non-minimal varint" (fun () ->
            Reader.fold path ~init:0 ~f:(fun n _ -> n + 1))
      in
      check_contains "overlong-zero message" msg "non-minimal";
      (* the offending byte is the trailing 0x00: magic(8) + tag + 0x80 *)
      check_contains "overlong-zero offset" msg
        (Printf.sprintf "byte %d" (String.length Btrace.magic + 2)))

let truncated_mid_varint () =
  with_temp (fun path ->
      let buf = Buffer.create 16 in
      Btrace.encode_record buf (Btrace.cond ~pc:0x123456 ~taken:true ());
      let body = Buffer.contents buf in
      (* one good record, then a tag and half a pc varint: EOF lands
         mid-varint, which must read as truncation at the record start *)
      write_bytes path (Btrace.magic ^ body ^ "\x01\x80\x81");
      let msg =
        expect_failure "eof mid-varint" (fun () ->
            Reader.fold path ~init:0 ~f:(fun n _ -> n + 1))
      in
      check_contains "mid-varint names the file" msg (Filename.basename path);
      check_contains "mid-varint names the offset" msg
        (Printf.sprintf "byte %d" (String.length Btrace.magic + String.length body)))

let malformed_text_line () =
  with_temp (fun path ->
      write_bytes path (Btrace.text_header ^ "\n4000 T C - 0\nnot a record\n");
      let msg =
        expect_failure "malformed text" (fun () ->
            Reader.fold path ~init:0 ~f:(fun n _ -> n + 1))
      in
      check_contains "text message names the file" msg (Filename.basename path);
      check_contains "text message names the line" msg "line 3")

let reader_survives_rejection () =
  (* a poisoned trace is rejectable without wedging later opens *)
  with_temp (fun path ->
      write_bytes path (Btrace.magic ^ "\x41");
      (match Reader.fold path ~init:0 ~f:(fun n _ -> n + 1) with
      | _ -> Alcotest.fail "corrupt trace decoded"
      | exception Failure _ -> ());
      Writer.save path sample_records;
      check Alcotest.int "path reusable after rejection" (List.length sample_records)
        (List.length (Reader.load path)))

(* --- fixtures --------------------------------------------------------------- *)

(* `dune runtest` runs us from test/; `dune exec` from wherever the caller
   stands — accept both. *)
let fixture name =
  let local = Filename.concat "fixtures" name in
  if Sys.file_exists local then local else Filename.concat "test/fixtures" name

let fixture_totals path =
  Reader.fold path ~init:(0, 0) ~f:(fun (n, insns) r -> (n + 1, insns + Btrace.insns r))

let loop7_fixture () =
  let path = fixture "loop7_64.trace" in
  check Alcotest.bool "text format" true (Reader.detect path = Reader.Branch_text);
  let records, insns = fixture_totals path in
  check Alcotest.int "branches" 64 records;
  check Alcotest.int "instructions" 241 insns

let h2p_fixture () =
  let path = fixture "h2p_mix_256.trace" in
  check Alcotest.bool "binary format" true (Reader.detect path = Reader.Branch_binary);
  let records, insns = fixture_totals path in
  check Alcotest.int "branches" 256 records;
  check Alcotest.int "instructions" 1883 insns

(* Replaying the committed fixtures through the reference designs is a
   behavioural pin: predictor semantics, trace decoding and the replay
   drive contract all feed these counters. *)
let replay_pin ~design ~path ~branches ~cond ~insns ~mispredicts ~cond_mispredicts () =
  let r = Replay.run_design (find_design design) ~path in
  check Alcotest.int "branches" branches r.Replay.branches;
  check Alcotest.int "cond branches" cond r.Replay.cond_branches;
  check Alcotest.int "instructions" insns r.Replay.instructions;
  check Alcotest.int "mispredicts" mispredicts r.Replay.mispredicts;
  check Alcotest.int "cond mispredicts" cond_mispredicts r.Replay.cond_mispredicts

let small_buffer_equivalence () =
  let path = fixture "h2p_mix_256.trace" in
  let default = Reader.load path in
  let small = Reader.load ~buffer_size:4096 path in
  let tiny = Reader.load ~buffer_size:1 path in
  (* buffer_size clamps to >= 512 *)
  check Alcotest.int "4KiB window count" (List.length default) (List.length small);
  List.iter2
    (fun a b ->
      if not (Btrace.equal_record a b) then Alcotest.fail "4KiB window decoded differently")
    default small;
  List.iter2
    (fun a b ->
      if not (Btrace.equal_record a b) then Alcotest.fail "clamped window decoded differently")
    default tiny;
  let r_default = Replay.run_design (find_design "B2") ~path in
  let r_small = Replay.run_design ~buffer_size:4096 (find_design "B2") ~path in
  check Alcotest.int "replay mispredicts invariant under window size"
    r_default.Replay.mispredicts r_small.Replay.mispredicts

(* --- property: text and binary encodings agree ------------------------------ *)

let record_arb =
  let kind_arb =
    Prop.oneof
      [ Cobra.Types.Cond; Cobra.Types.Jump; Cobra.Types.Call; Cobra.Types.Ret; Cobra.Types.Ind ]
  in
  let show r = Btrace.show_record r in
  Prop.make ~show (fun st ->
      let kind = kind_arb.Prop.gen st in
      let taken = (match kind with Cobra.Types.Cond -> Prop.bool.Prop.gen st | _ -> true) in
      let target =
        if Prop.bool.Prop.gen st then Btrace.no_target
        else (Prop.int_range 0 0xFFFFFF).Prop.gen st * 4
      in
      {
        Btrace.b_pc = (Prop.int_range 0 0x3FFFFFF).Prop.gen st * 2;
        b_taken = taken;
        b_kind = kind;
        b_target = target;
        b_gap = (Prop.int_range 0 5000).Prop.gen st;
      })

let prop_text_binary_agree () =
  Prop.check ~count:40 ~name:"text and binary encodings load back identically"
    (Prop.list ~min_len:0 ~max_len:40 record_arb) (fun records ->
      with_temp (fun bin_path ->
          with_temp (fun text_path ->
              Writer.save ~format:Btrace.Binary bin_path records;
              Writer.save ~format:Btrace.Text text_path records;
              let from_bin = Reader.load bin_path in
              let from_text = Reader.load text_path in
              if List.length from_bin <> List.length records then failwith "binary count drift";
              if List.length from_text <> List.length records then failwith "text count drift";
              List.iter2
                (fun a b ->
                  if not (Btrace.equal_record a b) then
                    failwith
                      (Printf.sprintf "binary drift: %s vs %s" (Btrace.show_record a)
                         (Btrace.show_record b)))
                records from_bin;
              List.iter2
                (fun a b ->
                  if not (Btrace.equal_record a b) then
                    failwith
                      (Printf.sprintf "text drift: %s vs %s" (Btrace.show_record a)
                         (Btrace.show_record b)))
                records from_text)))

(* Property: cutting a valid binary stream anywhere, or flipping a
   continuation bit, never mis-decodes — the reader either stops cleanly at
   a record boundary (asking for more) or fails with a byte-offset
   diagnostic. Complements the round-trip property above: that one pins the
   happy path, this one pins the failure mode. *)
let prop_decoder_never_misdecodes () =
  Prop.check ~count:60 ~name:"mutated binary streams never decode silently"
    (Prop.pair (Prop.list ~min_len:1 ~max_len:8 record_arb) (Prop.int_range 0 1000))
    (fun (records, salt) ->
      let buf = Buffer.create 64 in
      List.iter (Btrace.encode_record buf) records;
      let bytes = Buffer.to_bytes buf in
      let len = Bytes.length bytes in
      let decode_all bytes limit =
        let pos = ref 0 and n = ref 0 in
        let rec go () =
          if !pos < limit then
            match Btrace.decode_record bytes ~pos:!pos ~limit ~abs_offset:!pos with
            | Btrace.Need_more -> `Partial !n
            | Btrace.Decoded (_, consumed) ->
              pos := !pos + consumed;
              incr n;
              go ()
          else `Complete !n
        in
        go ()
      in
      (* cut: every decode stops at a record boundary, never invents data *)
      let cut = salt mod len in
      (match decode_all bytes cut with
      | `Complete n | `Partial n ->
        if n > List.length records then failwith "cut stream decoded extra records"
      | exception Failure msg ->
        if not (contains msg "byte") then failwith ("cut diagnostic lacks offset: " ^ msg));
      (* mutate one byte: decoding must never loop or crash untyped *)
      let mutated = Bytes.copy bytes in
      let i = salt mod len in
      Bytes.set mutated i (Char.chr (Char.code (Bytes.get mutated i) lxor 0x80));
      match decode_all mutated len with
      | `Complete _ | `Partial _ -> ()
      | exception Failure msg ->
        if not (contains msg "byte") then failwith ("mutation diagnostic lacks offset: " ^ msg))

(* --- replay vs full-pipeline equality ---------------------------------------- *)

(* Export a workload to a trace, replay it, and demand counters
   bit-identical to Software_model driving the same composed pipeline over
   the original stream — the acceptance criterion's MPKI equality. *)
let replay_equals_pipeline ~design_name ~workload ~insns () =
  let design = find_design design_name in
  let entry = Suite.find workload in
  with_temp (fun path ->
      let branches, traced_insns = Writer.export_workload ~max_insns:insns ~path entry in
      let sw = Software_model.run ~insns design entry in
      let rp = Replay.run_design design ~path in
      check Alcotest.int "exported branch count" branches rp.Replay.branches;
      check Alcotest.int "traced instruction count" traced_insns rp.Replay.instructions;
      check Alcotest.bool "software model over the stream = replay of the file" true
        (Replay.counters_equal sw rp))

let replay_with_stats () =
  let path = fixture "h2p_mix_256.trace" in
  let r, report = Replay.run_design_with_stats (find_design "TAGE-L") ~path in
  check Alcotest.int "result branches" 256 r.Replay.branches;
  let rendered = Cobra_stats.Report.render report in
  check_contains "report names the design" rendered "TAGE-L";
  check Alcotest.bool "report rendered" true (String.length rendered > 0)

let replay_deadline () =
  let path = fixture "h2p_mix_256.trace" in
  match Replay.run_design ~deadline:(Unix.gettimeofday () -. 1.0) (find_design "B2") ~path with
  | _ -> Alcotest.fail "expired deadline did not raise"
  | exception Replay.Timeout _ -> ()

(* --- serve: protocol via handle_line ----------------------------------------- *)

let collect_handle cfg line =
  let out = ref [] in
  let status = Serve.handle_line cfg (fun s -> out := s :: !out) line in
  (status, List.rev !out)

let serve_cfg () =
  { (Serve.default_config ~socket:"/tmp/unused.sock") with Serve.jobs = 2 }

let joined lines = String.concat "\n" lines

let serve_ping () =
  let status, out = collect_handle (serve_cfg ()) {|{"op": "ping", "id": "t1"}|} in
  check Alcotest.bool "continue" true (status = `Continue);
  let all = joined out in
  check_contains "pong" all {|"event": "pong"|};
  check_contains "id echoed" all {|"id": "t1"|};
  check_contains "terminator" all {|"event": "done"|}

(* The cached-repeat assertions need the runner cache on regardless of the
   ambient COBRA_CACHE (CI runs the suite with it off), pointed at a fresh
   directory so the first request is a guaranteed miss. *)
let with_fresh_cache f =
  let saved = Sys.getenv_opt "COBRA_CACHE" and saved_dir = Sys.getenv_opt "COBRA_CACHE_DIR" in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "cobra_test_cache.%d" (Unix.getpid ()))
  in
  Unix.putenv "COBRA_CACHE" "1";
  Unix.putenv "COBRA_CACHE_DIR" dir;
  let restore name = function Some v -> Unix.putenv name v | None -> Unix.putenv name "" in
  Fun.protect
    ~finally:(fun () ->
      restore "COBRA_CACHE" saved;
      restore "COBRA_CACHE_DIR" saved_dir;
      match Sys.readdir dir with
      | entries ->
        Array.iter (fun e -> try Sys.remove (Filename.concat dir e) with Sys_error _ -> ()) entries;
        (try Unix.rmdir dir with Unix.Unix_error _ -> ())
      | exception Sys_error _ -> ())
    f

let serve_replay_and_cache () =
  with_fresh_cache @@ fun () ->
  let cfg = serve_cfg () in
  let req =
    Printf.sprintf {|{"op": "replay", "design": "B2", "trace": "%s"}|}
      (fixture "h2p_mix_256.trace")
  in
  let status, out = collect_handle cfg req in
  check Alcotest.bool "continue" true (status = `Continue);
  let all = joined out in
  check_contains "result event" all {|"event": "result"|};
  check_contains "first run not cached" all {|"cached": false|};
  check_contains "mispredict counter" all {|"mispredicts": 41|};
  (* repeat: answered from the content-addressed result cache *)
  let _, out2 = collect_handle cfg req in
  check_contains "repeat served from cache" (joined out2) {|"cached": true|};
  (* no_cache opts out *)
  let _, out3 =
    collect_handle cfg
      (Printf.sprintf {|{"op": "replay", "design": "B2", "trace": "%s", "no_cache": true}|}
         (fixture "h2p_mix_256.trace"))
  in
  check_contains "no_cache bypasses" (joined out3) {|"cached": false|}

let serve_sweep () =
  let cfg = serve_cfg () in
  let req =
    Printf.sprintf {|{"op": "sweep", "designs": ["B2", "GShare"], "traces": ["%s"]}|}
      (fixture "loop7_64.trace")
  in
  let _, out = collect_handle cfg req in
  let all = joined out in
  let count_results =
    List.length (List.filter (fun l -> contains l {|"event": "result"|}) out)
  in
  check Alcotest.int "one result per sweep point" 2 count_results;
  check_contains "terminator" all {|"event": "done"|}

let serve_malformed () =
  let cfg = serve_cfg () in
  List.iter
    (fun line ->
      let status, out = collect_handle cfg line in
      check Alcotest.bool "malformed requests do not stop the daemon" true (status = `Continue);
      let all = joined out in
      check_contains "error event" all {|"event": "error"|};
      check_contains "terminator still sent" all {|"event": "done"|})
    [
      "this is not json";
      "{}";
      {|{"op": "frobnicate"}|};
      {|{"op": "replay"}|};
      {|{"op": "replay", "design": "NoSuchDesign", "trace": "x.trace"}|};
      {|{"op": "replay", "design": "B2", "trace": "/nonexistent/file.trace"}|};
    ];
  (* the daemon still answers normally afterwards *)
  let _, out = collect_handle cfg {|{"op": "ping"}|} in
  check_contains "alive after malformed storm" (joined out) {|"event": "pong"|}

(* --- serve: degenerate requests ----------------------------------------------- *)

module Probe_pattern = Cobra_probe.Pattern
module Probe_oracle = Cobra_probe.Oracle

let probe_cfg () =
  { (serve_cfg ()) with Serve.extra_ops = [ ("probe", Probe_oracle.serve_op) ] }

let serve_zero_length_trace () =
  (* a header-only (zero-branch) trace must be an id-tagged error, not a
     zero-filled result, and the daemon must keep serving *)
  with_temp (fun path ->
      write_bytes path Btrace.magic;
      let cfg = serve_cfg () in
      let status, out =
        collect_handle cfg
          (Printf.sprintf {|{"op": "replay", "design": "B2", "trace": "%s", "id": "z1"}|} path)
      in
      check Alcotest.bool "continue" true (status = `Continue);
      let all = joined out in
      check_contains "error event" all {|"event": "error"|};
      check_contains "id tagged" all {|"id": "z1"|};
      check_contains "names the cause" all "no branch records";
      check_contains "done still sent" all {|"event": "done"|};
      let _, out2 = collect_handle cfg {|{"op": "ping"}|} in
      check_contains "alive after zero-length trace" (joined out2) {|"event": "pong"|})

let serve_empty_sweep () =
  (* an empty trace list is a contract violation, not an empty success *)
  let cfg = serve_cfg () in
  let status, out = collect_handle cfg {|{"op": "sweep", "traces": [], "id": "z2"}|} in
  check Alcotest.bool "continue" true (status = `Continue);
  let all = joined out in
  check_contains "error event" all {|"event": "error"|};
  check_contains "id tagged" all {|"id": "z2"|};
  check_contains "names the field" all "traces";
  let _, out2 = collect_handle cfg {|{"op": "ping"}|} in
  check_contains "alive after empty sweep" (joined out2) {|"event": "pong"|}

let serve_probe_unknown_name () =
  let cfg = probe_cfg () in
  let status, out =
    collect_handle cfg {|{"op": "probe", "probes": ["no-such-probe"], "id": "p1"}|}
  in
  check Alcotest.bool "continue" true (status = `Continue);
  let all = joined out in
  check_contains "error event" all {|"event": "error"|};
  check_contains "id tagged" all {|"id": "p1"|};
  check_contains "lists valid probes" all "ladder";
  check_contains "done still sent" all {|"event": "done"|};
  (* unknown target likewise *)
  let _, out_t =
    collect_handle cfg {|{"op": "probe", "targets": ["NoSuchTarget"], "id": "p2"}|}
  in
  let all_t = joined out_t in
  check_contains "target error" all_t {|"event": "error"|};
  check_contains "target id tagged" all_t {|"id": "p2"|};
  (* and a well-formed probe sweep still works on the same daemon *)
  let _, out2 =
    collect_handle cfg
      {|{"op": "probe", "probes": ["ladder"], "targets": ["GSHARE6"], "id": "p3"}|}
  in
  let all2 = joined out2 in
  check_contains "probe event" all2 {|"event": "probe"|};
  check_contains "probe summary" all2 {|"event": "probe-summary"|};
  check_contains "probe id echoed" all2 {|"id": "p3"|}

let serve_unknown_op_lists_probe () =
  (* with the probe op registered, the unknown-op error advertises it *)
  let _, out = collect_handle (probe_cfg ()) {|{"op": "frobnicate", "id": "p4"}|} in
  let all = joined out in
  check_contains "unknown op lists probe" all "probe";
  check_contains "unknown op id tagged" all {|"id": "p4"|}

let serve_probe_trace_sweep () =
  (* end to end: a probe stream exported to a trace file is a first-class
     sweep input *)
  let s =
    let p = Probe_pattern.find_exn "loop" in
    p.Probe_pattern.p_gen ~level:12 ~seed:0x0b5a
  in
  with_temp (fun path ->
      Probe_pattern.to_trace_file ~path s;
      let req =
        Printf.sprintf {|{"op": "sweep", "designs": ["GShare", "TAGE-L"], "traces": ["%s"]}|}
          path
      in
      let _, out = collect_handle (serve_cfg ()) req in
      let results =
        List.length (List.filter (fun l -> contains l {|"event": "result"|}) out)
      in
      check Alcotest.int "one result per design" 2 results;
      check_contains "sweep summary" (joined out) {|"event": "sweep_summary"|})

let serve_shutdown () =
  let status, out = collect_handle (serve_cfg ()) {|{"op": "shutdown"}|} in
  check Alcotest.bool "shutdown requested" true (status = `Shutdown);
  check_contains "bye" (joined out) {|"event": "bye"|}

(* --- serve: live daemon over a Unix socket ----------------------------------- *)

let temp_socket () =
  let path = Filename.temp_file "cobra_serve" ".sock" in
  Sys.remove path;
  path

let wait_for_socket path =
  let rec go n =
    if n = 0 then Alcotest.fail "serve socket never appeared";
    if not (Sys.file_exists path) then begin
      Thread.delay 0.05;
      go (n - 1)
    end
  in
  go 100

let serve_live_daemon () =
  let socket = temp_socket () in
  let cfg =
    { (Serve.default_config ~socket) with Serve.jobs = 2; timeout_s = Some 30.0 }
  in
  let server = Thread.create (fun () -> Serve.serve cfg) () in
  Fun.protect
    ~finally:(fun () ->
      (try Serve.shutdown ~socket () with _ -> ());
      Thread.join server;
      try Sys.remove socket with Sys_error _ -> ())
    (fun () ->
      wait_for_socket socket;
      (* liveness *)
      let pong = Serve.request ~socket {|{"op": "ping"}|} in
      check_contains "live ping" (joined pong) {|"event": "pong"|};
      (* concurrent clients, each its own connection *)
      let replies = Array.make 4 [] in
      let clients =
        List.init 4 (fun i ->
            Thread.create
              (fun i ->
                let req =
                  if i mod 2 = 0 then
                    Printf.sprintf {|{"op": "replay", "design": "GShare", "trace": "%s", "id": "c%d"}|}
                      (fixture "loop7_64.trace") i
                  else Printf.sprintf {|{"op": "ping", "id": "c%d"}|} i
                in
                replies.(i) <- Serve.request ~socket req)
              i)
      in
      List.iter Thread.join clients;
      Array.iteri
        (fun i lines ->
          let all = joined lines in
          check_contains "concurrent id echoed" all (Printf.sprintf {|"id": "c%d"|} i);
          check_contains "concurrent terminator" all {|"event": "done"|};
          if i mod 2 = 0 then check_contains "concurrent result" all {|"event": "result"|})
        replies;
      (* a malformed request is answered with an error, and the daemon survives *)
      let err = Serve.request ~socket "not json at all" in
      check_contains "live malformed -> error" (joined err) {|"event": "error"|};
      let pong2 = Serve.request ~socket {|{"op": "ping"}|} in
      check_contains "alive after malformed" (joined pong2) {|"event": "pong"|})

(* ----------------------------------------------------------------------------- *)

let () =
  Alcotest.run "trace_replay"
    [
      ( "codec",
        [
          Alcotest.test_case "binary record round-trip" `Quick binary_record_roundtrip;
          Alcotest.test_case "binary prefix asks for more" `Quick binary_need_more;
          Alcotest.test_case "text line round-trip" `Quick text_line_roundtrip;
          Alcotest.test_case "validation rejects bad records" `Quick validate_rejects;
          Alcotest.test_case "binary file round-trip" `Quick (file_roundtrip Btrace.Binary);
          Alcotest.test_case "text file round-trip" `Quick (file_roundtrip Btrace.Text);
          Alcotest.test_case "detect rejects non-traces" `Quick detect_other;
          Alcotest.test_case "text/binary encodings agree (prop)" `Quick prop_text_binary_agree;
        ] );
      ( "diagnostics",
        [
          Alcotest.test_case "truncated binary names byte offset" `Quick truncated_binary;
          Alcotest.test_case "reserved tag bits rejected" `Quick corrupt_tag;
          Alcotest.test_case "varint overflow rejected" `Quick varint_overflow;
          Alcotest.test_case "non-minimal varint rejected with offset" `Quick nonminimal_varint;
          Alcotest.test_case "EOF mid-varint reads as truncation" `Quick truncated_mid_varint;
          Alcotest.test_case "mutated streams never mis-decode (prop)" `Quick
            prop_decoder_never_misdecodes;
          Alcotest.test_case "malformed text names line" `Quick malformed_text_line;
          Alcotest.test_case "rejection is survivable" `Quick reader_survives_rejection;
        ] );
      ( "fixtures",
        [
          Alcotest.test_case "loop7_64 totals" `Quick loop7_fixture;
          Alcotest.test_case "h2p_mix_256 totals" `Quick h2p_fixture;
          Alcotest.test_case "GShare on loop7_64 (pinned)" `Quick
            (replay_pin ~design:"GShare" ~path:(fixture "loop7_64.trace") ~branches:64 ~cond:56
               ~insns:241 ~mispredicts:24 ~cond_mispredicts:16);
          Alcotest.test_case "TAGE-L on h2p_mix_256 (pinned)" `Quick
            (replay_pin ~design:"TAGE-L" ~path:(fixture "h2p_mix_256.trace") ~branches:256
               ~cond:248 ~insns:1883 ~mispredicts:42 ~cond_mispredicts:41);
          Alcotest.test_case "B2 on h2p_mix_256 (pinned)" `Quick
            (replay_pin ~design:"B2" ~path:(fixture "h2p_mix_256.trace") ~branches:256 ~cond:248
               ~insns:1883 ~mispredicts:41 ~cond_mispredicts:40);
          Alcotest.test_case "small windows decode identically" `Quick small_buffer_equivalence;
        ] );
      ( "replay",
        [
          Alcotest.test_case "GShare replay == pipeline on loop7" `Quick
            (replay_equals_pipeline ~design_name:"GShare" ~workload:"loop7" ~insns:4000);
          Alcotest.test_case "B2 replay == pipeline on aliasing" `Quick
            (replay_equals_pipeline ~design_name:"B2" ~workload:"aliasing" ~insns:4000);
          Alcotest.test_case "TAGE-L replay == pipeline on h2p-mix" `Quick
            (replay_equals_pipeline ~design_name:"TAGE-L" ~workload:"h2p-mix" ~insns:4000);
          Alcotest.test_case "replay with stats report" `Quick replay_with_stats;
          Alcotest.test_case "expired deadline raises Timeout" `Quick replay_deadline;
        ] );
      ( "serve",
        [
          Alcotest.test_case "ping" `Quick serve_ping;
          Alcotest.test_case "replay, cached repeat, no_cache" `Quick serve_replay_and_cache;
          Alcotest.test_case "sweep cross product" `Quick serve_sweep;
          Alcotest.test_case "malformed requests survive" `Quick serve_malformed;
          Alcotest.test_case "zero-length trace is an id-tagged error" `Quick
            serve_zero_length_trace;
          Alcotest.test_case "empty sweep spec is an id-tagged error" `Quick serve_empty_sweep;
          Alcotest.test_case "unknown probe name is an id-tagged error" `Quick
            serve_probe_unknown_name;
          Alcotest.test_case "unknown op advertises the probe op" `Quick
            serve_unknown_op_lists_probe;
          Alcotest.test_case "probe trace sweeps end to end" `Quick serve_probe_trace_sweep;
          Alcotest.test_case "shutdown handshake" `Quick serve_shutdown;
          Alcotest.test_case "live daemon, concurrent clients" `Quick serve_live_daemon;
        ] );
    ]
