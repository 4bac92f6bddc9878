(* The trace-replay frontend, end to end:

   - {!Btrace} codec round-trips (binary record-level, text line-level) and
     a Prop property that the text and binary encodings of the same random
     record list load back identically;
   - the cursor: a binary read through {!Reader.read} allocates nothing,
     and a record cut short leaves the cursor as it was;
   - {!Reader} decode diagnostics: truncated, corrupt and malformed inputs
     are rejected with a [Failure] naming the file and the byte offset
     (binary) or line number (text) of the corruption, and never take the
     process down;
   - streaming invariance: a 4 KiB window replays a fixture to exactly the
     same records as the default 64 KiB window;
   - pinned fixtures: the two committed traces under test/fixtures decode to
     known record/instruction totals, and replaying them through the
     reference designs on either engine reproduces pinned counters;
   - replay-vs-pipeline equality: exporting a workload to a trace and
     replaying it on either engine gives counters bit-identical to
     {!Software_model} driving the same pipeline over the original stream;
   - {!Serve}: protocol handling through [handle_line] (ping, replay,
     cached repeat, a replay and a one-point sweep sharing a cache key,
     empty traces on the replay and windowed paths, windows past the end
     of the trace, malformed request, unknown op, the built-in probe op,
     shutdown) plus a live daemon on a Unix socket answering concurrent
     clients, timing out a probe matrix, and claiming only a missing path
     or a stale socket. *)

open Cobra_trace_replay
module Serve = Cobra_serve.Serve
module Designs = Cobra_eval.Designs
module Suite = Cobra_workloads.Suite

let check = Alcotest.check

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
  let c = Btrace.cursor () in
  while !pos < limit do
    match Btrace.decode bytes ~pos:!pos ~limit ~abs_offset:!pos c with
    | 0 -> Alcotest.fail "need more on a complete buffer"
    | consumed ->
      decoded := Btrace.to_record c :: !decoded;
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
  let c = Btrace.cursor () in
  (* every strict prefix of a record must ask for more, never mis-decode *)
  for limit = 0 to full - 1 do
    match Btrace.decode bytes ~pos:0 ~limit ~abs_offset:0 c with
    | 0 -> ()
    | _ -> Alcotest.failf "decoded from a %d/%d-byte prefix" limit full
  done

(* A window that ends mid-record leaves the cursor as it was. *)
let cursor_need_more_untouched () =
  let buf = Buffer.create 64 in
  Btrace.encode_record buf (List.nth sample_records 4);
  let bytes = Buffer.to_bytes buf in
  let held = List.nth sample_records 6 in
  let c = Btrace.cursor () in
  Btrace.fill c held;
  for limit = 0 to Bytes.length bytes - 1 do
    ignore (Btrace.decode bytes ~pos:0 ~limit ~abs_offset:0 c);
    if not (Btrace.equal_record held (Btrace.to_record c)) then
      Alcotest.failf "a %d-byte prefix changed the cursor" limit
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
      check_contains "corrupt-tag message names the file" msg (Filename.basename path);
      check_contains "corrupt-tag message" msg "byte")

let varint_overflow () =
  with_temp (fun path ->
      (* tag 0x01 (taken cond), then 10 continuation bytes: > 63 bits of pc *)
      write_bytes path (Btrace.magic ^ "\x01" ^ String.make 10 '\xff');
      let msg =
        expect_failure "varint overflow" (fun () ->
            Reader.fold path ~init:0 ~f:(fun n _ -> n + 1))
      in
      check_contains "overflow message names the file" msg (Filename.basename path);
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
      check_contains "overlong-zero message names the file" msg (Filename.basename path);
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

(* --- the cursor read -------------------------------------------------------- *)

(* The replay path's decode allocates nothing: after a warm-up, reading
   records through the cursor adds 0 minor words, refills of a small window
   (some of them mid-record) included. *)
let cursor_read_allocates_nothing () =
  let n = List.length sample_records in
  let records = List.init 5_000 (fun i -> List.nth sample_records (i mod n)) in
  with_temp (fun path ->
      Writer.save ~format:Btrace.Binary path records;
      Reader.with_file ~buffer_size:512 path (fun rd ->
          let c = Btrace.cursor () in
          for _ = 1 to 100 do
            ignore (Reader.read rd c)
          done;
          let read = ref 0 in
          let w0 = Gc.minor_words () in
          while Reader.read rd c do
            incr read
          done;
          let words = Gc.minor_words () -. w0 in
          check Alcotest.int "records read after the warm-up" 4_900 !read;
          check (Alcotest.float 0.) "minor words over the reads" 0. words))

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
   drive contract all feed these counters, on either engine. *)
let replay_pin ~design ~path ~branches ~cond ~insns ~mispredicts ~cond_mispredicts () =
  List.iter
    (fun engine ->
      let r = Replay.run_design ~engine (Designs.find design) ~path in
      check
        Alcotest.(list int)
        (Replay.engine_name engine ^ ": branches, cond, insns, mispredicts, cond mispredicts")
        [ branches; cond; insns; mispredicts; cond_mispredicts ]
        Replay.[ r.branches; r.cond_branches; r.instructions; r.mispredicts; r.cond_mispredicts ])
    [ `Interpreted; `Compiled ]

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
    default tiny

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
        let pos = ref 0 and n = ref 0 and c = Btrace.cursor () in
        let rec go () =
          if !pos < limit then
            match Btrace.decode bytes ~pos:!pos ~limit ~abs_offset:!pos c with
            | 0 -> `Partial !n
            | consumed ->
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

(* Export a workload to a trace, replay it on each engine, and demand
   counters bit-identical to Software_model driving the same composed
   pipeline over the original stream — the acceptance criterion's MPKI
   equality. *)
let replay_equals_pipeline ~design_name ~workload ~insns () =
  let design = Designs.find design_name in
  let entry = Suite.find workload in
  with_temp (fun path ->
      let branches, traced_insns = Writer.export_workload ~max_insns:insns ~path entry in
      let sw = Software_model.run ~insns design entry in
      List.iter
        (fun engine ->
          let rp = Replay.run_design ~engine design ~path in
          let what = Replay.engine_name engine in
          check Alcotest.(pair int int) (what ^ ": exported branches and instructions")
            (branches, traced_insns) (rp.Replay.branches, rp.Replay.instructions);
          check Alcotest.bool (what ^ ": software model over the stream = replay of the file")
            true (Replay.counters_equal sw rp))
        [ `Interpreted; `Compiled ])

let replay_with_stats () =
  let path = fixture "h2p_mix_256.trace" in
  let r, report = Replay.run_design_with_stats (Designs.find "TAGE-L") ~path in
  check Alcotest.int "result branches" 256 r.Replay.branches;
  let rendered = Cobra_stats.Report.render report in
  check_contains "report names the design" rendered "TAGE-L";
  check Alcotest.bool "report rendered" true (String.length rendered > 0)

let replay_deadline () =
  let path = fixture "h2p_mix_256.trace" in
  match Replay.run_design ~deadline:(Unix.gettimeofday () -. 1.0) (Designs.find "B2") ~path with
  | _ -> Alcotest.fail "expired deadline did not raise"
  | exception Replay.Timeout _ -> ()

(* --- serve: protocol via handle_line ----------------------------------------- *)

let collect_handle daemon line =
  let out = ref [] in
  let status = Serve.handle_line daemon (fun s -> out := s :: !out) line in
  (status, List.rev !out)

let daemon () =
  Serve.create { (Serve.default_config ~socket:"/tmp/unused.sock") with Serve.jobs = 2 }

let joined lines = String.concat "\n" lines

let serve_ping () =
  let status, out = collect_handle (daemon ()) {|{"op": "ping", "id": "t1"}|} in
  check Alcotest.bool "continue" true (status = `Continue);
  let all = joined out in
  check_contains "pong" all {|"event": "pong"|};
  check_contains "id echoed" all {|"id": "t1"|};
  check_contains "terminator" all {|"event": "done"|}

(* The cached-repeat assertions need the runner cache on regardless of the
   ambient COBRA_CACHE (CI runs the suite with it off), pointed at a fresh
   directory so the first request is a guaranteed miss. *)
let with_fresh_cache f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "cobra_test_cache.%d" (Unix.getpid ()))
  in
  Fun.protect
    ~finally:(fun () ->
      match Sys.readdir dir with
      | entries ->
        Array.iter (fun e -> try Sys.remove (Filename.concat dir e) with Sys_error _ -> ()) entries;
        (try Unix.rmdir dir with Unix.Unix_error _ -> ())
      | exception Sys_error _ -> ())
    (fun () -> Cobra_util.Env.with_set [ ("COBRA_CACHE", "1"); ("COBRA_CACHE_DIR", dir) ] f)

let serve_replay_and_cache () =
  with_fresh_cache @@ fun () ->
  let srv = daemon () in
  let req =
    Printf.sprintf {|{"op": "replay", "design": "B2", "trace": "%s"}|}
      (fixture "h2p_mix_256.trace")
  in
  let status, out = collect_handle srv req in
  check Alcotest.bool "continue" true (status = `Continue);
  let all = joined out in
  check_contains "result event" all {|"event": "result"|};
  check_contains "first run not cached" all {|"cached": false|};
  check_contains "mispredict counter" all {|"mispredicts": 41|};
  (* repeat: answered from the content-addressed result cache *)
  let _, out2 = collect_handle srv req in
  check_contains "repeat served from cache" (joined out2) {|"cached": true|};
  (* no_cache opts out *)
  let _, out3 =
    collect_handle srv
      (Printf.sprintf {|{"op": "replay", "design": "B2", "trace": "%s", "no_cache": true}|}
         (fixture "h2p_mix_256.trace"))
  in
  check_contains "no_cache bypasses" (joined out3) {|"cached": false|}

(* A replay op and a one-point plain sweep are the same point under the
   same result-cache key: either answers the other's repeat. *)
let serve_replay_sweep_share_key () =
  with_fresh_cache @@ fun () ->
  let srv = daemon () in
  let trace = fixture "h2p_mix_256.trace" in
  let replay design =
    Printf.sprintf {|{"op": "replay", "design": "%s", "trace": "%s"}|} design trace
  in
  let sweep design =
    Printf.sprintf {|{"op": "sweep", "designs": ["%s"], "traces": ["%s"]}|} design trace
  in
  let cached what line expected =
    let _, out = collect_handle srv line in
    check_contains what (joined out) (Printf.sprintf {|"cached": %b|} expected)
  in
  cached "replay computes" (replay "B2") false;
  cached "sweep answered from the replay's entry" (sweep "B2") true;
  cached "sweep computes" (sweep "TAGE-L") false;
  cached "replay answered from the sweep's entry" (replay "TAGE-L") true

let serve_sweep () =
  let srv = daemon () in
  let req =
    Printf.sprintf {|{"op": "sweep", "designs": ["B2", "GShare"], "traces": ["%s"]}|}
      (fixture "loop7_64.trace")
  in
  let _, out = collect_handle srv req in
  let all = joined out in
  let count_results =
    List.length (List.filter (fun l -> contains l {|"event": "result"|}) out)
  in
  check Alcotest.int "one result per sweep point" 2 count_results;
  check_contains "terminator" all {|"event": "done"|}

let serve_malformed () =
  let srv = daemon () in
  List.iter
    (fun line ->
      let status, out = collect_handle srv line in
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
  let _, out = collect_handle srv {|{"op": "ping"}|} in
  check_contains "alive after malformed storm" (joined out) {|"event": "pong"|}

(* --- serve: degenerate requests ----------------------------------------------- *)

module Probe_pattern = Cobra_probe.Pattern

let serve_zero_length_trace () =
  (* a header-only (zero-branch) trace must be an id-tagged error, not a
     zero-filled result, and the daemon must keep serving *)
  with_temp (fun path ->
      write_bytes path Btrace.magic;
      let srv = daemon () in
      let status, out =
        collect_handle srv
          (Printf.sprintf {|{"op": "replay", "design": "B2", "trace": "%s", "id": "z1"}|} path)
      in
      check Alcotest.bool "continue" true (status = `Continue);
      let all = joined out in
      check_contains "error event" all {|"event": "error"|};
      check_contains "id tagged" all {|"id": "z1"|};
      check_contains "names the cause" all "no branch records";
      check_contains "done still sent" all {|"event": "done"|};
      let _, out2 = collect_handle srv {|{"op": "ping"}|} in
      check_contains "alive after zero-length trace" (joined out2) {|"event": "pong"|})

(* The empty-trace rule holds for windowed sweeps too: the point is an
   error, and neither cache keeps anything for it, so a repeat fails the
   same way. *)
let serve_windowed_header_only () =
  with_fresh_cache @@ fun () ->
  with_temp (fun path ->
      write_bytes path Btrace.magic;
      let srv = daemon () in
      let req =
        Printf.sprintf
          {|{"op": "sweep", "designs": ["B2"], "traces": ["%s"], "warmup_branches": 10, "window_branches": 10, "windows": 2, "id": "z3"}|}
          path
      in
      List.iter
        (fun attempt ->
          let status, out = collect_handle srv req in
          check Alcotest.bool "continue" true (status = `Continue);
          let all = joined out in
          check_contains (attempt ^ ": error event") all {|"event": "error"|};
          check_contains (attempt ^ ": id tagged") all {|"id": "z3"|};
          check_contains (attempt ^ ": names the cause") all "no branch records";
          check Alcotest.bool (attempt ^ ": no result") false (contains all {|"event": "result"|});
          check_contains (attempt ^ ": no warm checkpoint kept") all {|"warm_entries": 0|};
          check_contains (attempt ^ ": done still sent") all {|"event": "done"|})
        [ "first"; "repeat" ])

(* A window that starts past the end of the trace is an error naming the
   window and the trace's length, and its point stores nothing in the
   result cache, so a repeat fails the same way; a partial last window is a
   result. *)
let serve_window_past_end () =
  with_fresh_cache @@ fun () ->
  with_temp (fun path ->
      Writer.save ~format:Btrace.Binary path
        (List.init 3_000 (fun i ->
             Btrace.cond ~pc:(0x4000 + (4 * (i mod 64))) ~taken:(i mod 3 <> 0) ()));
      let srv = daemon () in
      let req windows =
        Printf.sprintf
          {|{"op": "sweep", "designs": ["B2"], "traces": ["%s"], "warmup_branches": 2900, "window_branches": 400, "windows": %d, "id": "w1"}|}
          path windows
      in
      List.iter
        (fun attempt ->
          let status, out = collect_handle srv (req 2) in
          check Alcotest.bool "continue" true (status = `Continue);
          let all = joined out in
          check_contains (attempt ^ ": error event") all {|"event": "error"|};
          check_contains (attempt ^ ": id tagged") all {|"id": "w1"|};
          check_contains (attempt ^ ": names the window") all "window 1 of B2";
          check_contains (attempt ^ ": names the trace's length") all "(3000 branches)";
          check Alcotest.bool (attempt ^ ": no result") false (contains all {|"event": "result"|}))
        [ "first"; "repeat" ];
      let _, out = collect_handle srv (req 1) in
      let all = joined out in
      check_contains "a partial window is a result" all {|"event": "result"|};
      check_contains "its branches" all {|"branches": 100|})

let serve_empty_sweep () =
  (* an empty trace list is a contract violation, not an empty success *)
  let srv = daemon () in
  let status, out = collect_handle srv {|{"op": "sweep", "traces": [], "id": "z2"}|} in
  check Alcotest.bool "continue" true (status = `Continue);
  let all = joined out in
  check_contains "error event" all {|"event": "error"|};
  check_contains "id tagged" all {|"id": "z2"|};
  check_contains "names the field" all "traces";
  let _, out2 = collect_handle srv {|{"op": "ping"}|} in
  check_contains "alive after empty sweep" (joined out2) {|"event": "pong"|}

let serve_probe_unknown_name () =
  let srv = daemon () in
  let status, out =
    collect_handle srv {|{"op": "probe", "probes": ["no-such-probe"], "id": "p1"}|}
  in
  check Alcotest.bool "continue" true (status = `Continue);
  let all = joined out in
  check_contains "error event" all {|"event": "error"|};
  check_contains "id tagged" all {|"id": "p1"|};
  check_contains "lists valid probes" all "ladder";
  check_contains "done still sent" all {|"event": "done"|};
  (* unknown target likewise *)
  let _, out_t =
    collect_handle srv {|{"op": "probe", "targets": ["NoSuchTarget"], "id": "p2"}|}
  in
  let all_t = joined out_t in
  check_contains "target error" all_t {|"event": "error"|};
  check_contains "target id tagged" all_t {|"id": "p2"|};
  (* and a well-formed probe sweep still works on the same daemon *)
  let _, out2 =
    collect_handle srv
      {|{"op": "probe", "probes": ["ladder"], "targets": ["GSHARE6"], "id": "p3"}|}
  in
  let all2 = joined out2 in
  check_contains "probe event" all2 {|"event": "probe"|};
  check_contains "probe summary" all2 {|"event": "probe-summary"|};
  check_contains "probe id echoed" all2 {|"id": "p3"|}

let serve_unknown_op_lists_probe () =
  (* the probe op is built in, and the unknown-op error advertises it *)
  let _, out = collect_handle (daemon ()) {|{"op": "frobnicate", "id": "p4"}|} in
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
      let _, out = collect_handle (daemon ()) req in
      let results =
        List.length (List.filter (fun l -> contains l {|"event": "result"|}) out)
      in
      check Alcotest.int "one result per design" 2 results;
      check_contains "sweep summary" (joined out) {|"event": "sweep_summary"|})

let serve_shutdown () =
  let status, out = collect_handle (daemon ()) {|{"op": "shutdown"}|} in
  check Alcotest.bool "shutdown requested" true (status = `Shutdown);
  check_contains "bye" (joined out) {|"event": "bye"|}

(* --- serve: live daemon over a Unix socket ----------------------------------- *)

let temp_socket () =
  let path = Filename.temp_file "cobra_serve" ".sock" in
  Sys.remove path;
  path

(* Ping until the daemon answers: its socket path appears at bind, before
   it listens, and a stale one is there before it starts. *)
let rec ping_when_up ?(tries = 100) socket =
  match Serve.request ~timeout_s:5.0 ~socket {|{"op": "ping"}|} with
  | lines -> joined lines
  | exception Failure _ when tries > 0 ->
    Thread.delay 0.05;
    ping_when_up ~tries:(tries - 1) socket

(* Shut down the daemon on [socket] and join its thread; a daemon that can
   no longer be reached is left running rather than joined forever. *)
let stop_daemon socket t =
  match Serve.shutdown ~timeout_s:5.0 ~socket () with
  | () -> Thread.join t
  | exception Failure _ -> ()

(* Run [f] against a daemon serving [cfg] on a thread, then shut it down. *)
let with_daemon cfg f =
  let server = Thread.create Serve.serve (Serve.create cfg) in
  Fun.protect ~finally:(fun () -> stop_daemon cfg.Serve.socket server) f

let serve_live_daemon () =
  let socket = temp_socket () in
  let cfg =
    { (Serve.default_config ~socket) with Serve.jobs = 2; timeout_s = Some 30.0 }
  in
  with_daemon cfg (fun () ->
      (* liveness *)
      check_contains "live ping" (ping_when_up socket) {|"event": "pong"|};
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

(* A request line past [Serve.max_request_bytes] — here one that never
   ends — is answered with an id-less error and its connection closed,
   without the daemon buffering the rest; a fresh connection is served as
   before. *)
(* The probe op runs under the daemon's per-request budget: a full probe
   matrix overruns 50 ms and is answered with an id-tagged timeout error,
   and the daemon keeps answering. *)
let serve_probe_timeout () =
  let socket = temp_socket () in
  with_daemon { (Serve.default_config ~socket) with Serve.timeout_s = Some 0.05 } (fun () ->
      check_contains "daemon up" (ping_when_up socket) {|"event": "pong"|};
      let all = joined (Serve.request ~socket {|{"op": "probe", "id": "pt"}|}) in
      check_contains "error event" all {|"event": "error"|};
      check_contains "id tagged" all {|"id": "pt"|};
      check_contains "names the timeout" all "timeout after";
      check Alcotest.bool "no summary" false (contains all "probe-summary");
      check_contains "alive after the timeout"
        (joined (Serve.request ~socket {|{"op": "ping"}|}))
        {|"event": "pong"|})

let serve_overlong_line () =
  let socket = temp_socket () in
  with_daemon (Serve.default_config ~socket) (fun () ->
      check_contains "daemon up" (ping_when_up socket) {|"event": "pong"|};
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let reply =
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            Unix.connect fd (Unix.ADDR_UNIX socket);
            Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.0;
            let oc = Unix.out_channel_of_descr fd in
            output_string oc (String.make (Serve.max_request_bytes + 1) 'x');
            flush oc;
            In_channel.input_all (Unix.in_channel_of_descr fd))
      in
      check_contains "over-long line -> error" reply {|"event": "error"|};
      check_contains "error names the cap" reply (string_of_int Serve.max_request_bytes);
      check Alcotest.bool "error carries no id" false (contains reply {|"id"|});
      check_contains "fresh connection still served" (ping_when_up ~tries:0 socket)
        {|"event": "pong"|})

(* Run [Serve.serve] on a thread and return the message of the [Failure]
   it refuses [socket] with. A daemon that starts instead is shut down and
   the test fails. *)
let expect_refusal socket =
  let refusal = Atomic.make None in
  let t =
    Thread.create
      (fun () ->
        try Serve.serve (Serve.create (Serve.default_config ~socket))
        with Failure m -> Atomic.set refusal (Some m))
      ()
  in
  let rec wait tries =
    match Atomic.get refusal with
    | Some m -> m
    | None when tries > 0 ->
      Thread.delay 0.05;
      wait (tries - 1)
    | None ->
      stop_daemon socket t;
      Alcotest.failf "serve did not refuse %s" socket
  in
  wait 100

let serve_socket_path_guard () =
  (* a regular file is not a stale socket: it stays intact *)
  with_temp ~suffix:".sock" (fun file ->
      Out_channel.with_open_text file (fun oc -> output_string oc "keep me");
      check_contains "refusal names the path" (expect_refusal file) file;
      check Alcotest.string "regular file intact" "keep me"
        (In_channel.with_open_text file In_channel.input_all));
  (* a live daemon's socket is not taken over *)
  let socket = temp_socket () in
  with_daemon (Serve.default_config ~socket) (fun () ->
      check_contains "first daemon up" (ping_when_up socket) {|"event": "pong"|};
      check_contains "second daemon refused" (expect_refusal socket) "already listening";
      check_contains "first daemon still answers" (ping_when_up ~tries:0 socket)
        {|"event": "pong"|});
  (* a stale socket, bound and closed without an unlink, is replaced *)
  let stale = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind stale (Unix.ADDR_UNIX socket);
  Unix.close stale;
  with_daemon (Serve.default_config ~socket) (fun () ->
      check_contains "daemon on a stale socket answers" (ping_when_up socket)
        {|"event": "pong"|})

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
      ( "cursor",
        [
          Alcotest.test_case "binary read allocates nothing" `Quick cursor_read_allocates_nothing;
          Alcotest.test_case "need-more leaves the cursor untouched" `Quick
            cursor_need_more_untouched;
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
          Alcotest.test_case "replay and one-point sweep share a cache key" `Quick
            serve_replay_sweep_share_key;
          Alcotest.test_case "sweep cross product" `Quick serve_sweep;
          Alcotest.test_case "malformed requests survive" `Quick serve_malformed;
          Alcotest.test_case "zero-length trace is an id-tagged error" `Quick
            serve_zero_length_trace;
          Alcotest.test_case "windowed sweep over a header-only trace is an id-tagged error"
            `Quick serve_windowed_header_only;
          Alcotest.test_case "window past the end of the trace is an id-tagged error" `Quick
            serve_window_past_end;
          Alcotest.test_case "empty sweep spec is an id-tagged error" `Quick serve_empty_sweep;
          Alcotest.test_case "unknown probe name is an id-tagged error" `Quick
            serve_probe_unknown_name;
          Alcotest.test_case "unknown op advertises the probe op" `Quick
            serve_unknown_op_lists_probe;
          Alcotest.test_case "probe trace sweeps end to end" `Quick serve_probe_trace_sweep;
          Alcotest.test_case "shutdown handshake" `Quick serve_shutdown;
          Alcotest.test_case "live daemon, concurrent clients" `Quick serve_live_daemon;
          Alcotest.test_case "probe op obeys the request timeout" `Quick serve_probe_timeout;
          Alcotest.test_case "over-long request line refused" `Quick serve_overlong_line;
          Alcotest.test_case "socket path: foreign file, live daemon, stale socket" `Quick
            serve_socket_path_guard;
        ] );
    ]
