open Cobra_util

let check = Alcotest.check

(* --- Bits ---------------------------------------------------------------- *)

let test_bits_roundtrip () =
  let b = Bits.of_int ~width:10 0x2a5 in
  check Alcotest.int "to_int" 0x2a5 (Bits.to_int b);
  check Alcotest.string "to_string" "1010100101" (Bits.to_string b);
  check Alcotest.bool "of_string" true (Bits.equal b (Bits.of_string "1010100101"))

let test_bits_wide () =
  (* widths above one limb *)
  let b = Bits.zero 100 in
  let b = Bits.set b 99 true in
  let b = Bits.set b 0 true in
  check Alcotest.bool "bit 99" true (Bits.get b 99);
  check Alcotest.bool "bit 0" true (Bits.get b 0);
  check Alcotest.int "popcount" 2 (Bits.popcount b);
  let shifted = Bits.shift_in_lsb b false in
  check Alcotest.bool "msb dropped" false (Bits.get shifted 99);
  check Alcotest.bool "bit 1 now set" true (Bits.get shifted 1)

let test_bits_shift_in () =
  let b = Bits.of_int ~width:4 0b0110 in
  let b = Bits.shift_in_lsb b true in
  check Alcotest.int "shift" 0b1101 (Bits.to_int b)

let test_bits_extract () =
  let b = Bits.of_int ~width:16 0xabcd in
  check Alcotest.int "extract mid" 0xbc (Bits.extract_int b ~lo:4 ~len:8);
  check Alcotest.int "extract beyond width reads zero" 0xa (Bits.extract_int b ~lo:12 ~len:8)

let test_bits_concat () =
  let hi = Bits.of_int ~width:4 0xa and lo = Bits.of_int ~width:8 0x5c in
  let c = Bits.concat ~hi ~lo in
  check Alcotest.int "width" 12 (Bits.width c);
  check Alcotest.int "value" 0xa5c (Bits.to_int c)

let test_bits_fold_xor () =
  let b = Bits.of_int ~width:12 0xABC in
  check Alcotest.int "fold 4" (0xa lxor 0xb lxor 0xc) (Bits.fold_xor b 4)

let prop_bits_string_roundtrip =
  QCheck.Test.make ~name:"bits string roundtrip" ~count:200
    QCheck.(pair (int_bound 1000000) (int_range 1 60))
    (fun (v, w) ->
      let v = v land ((1 lsl w) - 1) in
      let b = Bits.of_int ~width:w v in
      Bits.equal b (Bits.of_string (Bits.to_string b)) && Bits.to_int b = v)

let prop_bits_set_get =
  QCheck.Test.make ~name:"bits set/get" ~count:200
    QCheck.(pair (int_range 1 130) (int_bound 1000))
    (fun (w, i) ->
      let i = i mod w in
      let b = Bits.set (Bits.zero w) i true in
      Bits.get b i && Bits.popcount b = 1)

let prop_shift_in_window =
  QCheck.Test.make ~name:"history window keeps youngest bits" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 200) bool)
    (fun bits ->
      let w = 16 in
      let h = List.fold_left Bits.shift_in_lsb (Bits.zero w) bits in
      let expected =
        let arr = Array.of_list (List.rev bits) in
        (* arr.(0) is the youngest bit *)
        Array.to_list (Array.init (min w (Array.length arr)) (fun i -> arr.(i)))
      in
      List.for_all2 (fun i b -> Bits.get h i = b)
        (List.init (List.length expected) Fun.id)
        expected)

(* --- Counter ------------------------------------------------------------- *)

let test_counter_saturation () =
  let bits = 2 in
  let c = Counter.max_value ~bits in
  check Alcotest.int "inc saturates" c (Counter.increment ~bits c);
  check Alcotest.int "dec saturates" 0 (Counter.decrement ~bits 0);
  check Alcotest.bool "taken threshold" true (Counter.is_taken ~bits 2);
  check Alcotest.bool "not taken" false (Counter.is_taken ~bits 1)

let prop_counter_bounds =
  QCheck.Test.make ~name:"counter stays in range" ~count:500
    QCheck.(pair (int_range 1 8) (list bool))
    (fun (bits, updates) ->
      let v = List.fold_left (fun v t -> Counter.update ~bits v ~taken:t)
                (Counter.weakly_not_taken ~bits) updates in
      Counter.is_valid ~bits v)

let prop_signed_counter_bounds =
  QCheck.Test.make ~name:"signed counter stays in range" ~count:500
    QCheck.(pair (int_range 1 8) (list (int_range (-1) 1)))
    (fun (bits, dirs) ->
      let v = List.fold_left (fun v d -> Counter.update_signed ~bits v ~dir:d) 0 dirs in
      v >= Counter.signed_min ~bits && v <= Counter.signed_max ~bits)

(* --- Hashing ------------------------------------------------------------- *)

let test_fold_int () =
  check Alcotest.int "fold of zero" 0 (Hashing.fold_int 0 ~width:62 ~bits:10);
  check Alcotest.int "fold identity below width"
    0x155 (Hashing.fold_int 0x155 ~width:10 ~bits:10)

let prop_fold_in_range =
  QCheck.Test.make ~name:"fold_int lands in range" ~count:500
    QCheck.(pair (int_bound max_int) (int_range 1 20))
    (fun (v, bits) ->
      let f = Hashing.fold_int v ~width:62 ~bits in
      f >= 0 && f < 1 lsl bits)

(* The fold chunk by chunk up to [width], never stopping early: the
   reference for [fold_int], which stops once the rest is zero. *)
let fold_int_full_width v ~width ~bits =
  if bits = 0 then 0
  else begin
    let mask = (1 lsl bits) - 1 in
    let acc = ref 0 in
    let v = ref (v land ((1 lsl (if width < 62 then width else 62)) - 1)) in
    let remaining = ref width in
    while !remaining > 0 do
      acc := !acc lxor (!v land mask);
      v := !v lsr bits;
      remaining := !remaining - bits
    done;
    !acc
  end

let prop_fold_matches_full_width =
  QCheck.Test.make ~name:"fold_int equals the full-width loop" ~count:2000
    QCheck.(triple int (int_range 0 70) (int_range 0 62))
    (fun (v, width, bits) ->
      Hashing.fold_int v ~width ~bits = fold_int_full_width v ~width ~bits)

let prop_folded_history_matches_reference =
  QCheck.Test.make ~name:"folded_history equals manual fold" ~count:200
    QCheck.(list_of_size (Gen.int_range 0 80) bool)
    (fun bits ->
      let h = List.fold_left Bits.shift_in_lsb (Bits.zero 64) bits in
      let len = 24 and out = 7 in
      let manual =
        let v = ref 0 in
        let i = ref 0 in
        while !i < len do
          let chunk = min out (len - !i) in
          v := !v lxor Bits.extract_int h ~lo:!i ~len:chunk;
          i := !i + out
        done;
        !v
      in
      Hashing.folded_history h ~len ~bits:out = manual)

(* --- Circular buffer ----------------------------------------------------- *)

let test_cb_fifo_order () =
  let cb = Circular_buffer.create ~capacity:4 in
  let s0 = Circular_buffer.enqueue cb "a" in
  let s1 = Circular_buffer.enqueue cb "b" in
  check Alcotest.int "sequence increments" (s0 + 1) s1;
  check Alcotest.(pair int string) "oldest" (s0, "a") (Option.get (Circular_buffer.oldest cb));
  check Alcotest.(pair int string) "dequeue" (s0, "a") (Option.get (Circular_buffer.dequeue cb));
  check Alcotest.(pair int string) "next" (s1, "b") (Option.get (Circular_buffer.dequeue cb));
  check Alcotest.bool "empty" true (Circular_buffer.is_empty cb)

let test_cb_full () =
  let cb = Circular_buffer.create ~capacity:2 in
  ignore (Circular_buffer.enqueue cb 1);
  ignore (Circular_buffer.enqueue cb 2);
  check Alcotest.bool "full" true (Circular_buffer.is_full cb);
  Alcotest.check_raises "enqueue when full" (Failure "Circular_buffer.enqueue: full")
    (fun () -> ignore (Circular_buffer.enqueue cb 3))

let test_cb_drop_newer () =
  let cb = Circular_buffer.create ~capacity:8 in
  let seqs = List.map (fun i -> Circular_buffer.enqueue cb i) [ 0; 1; 2; 3; 4 ] in
  let pivot = List.nth seqs 2 in
  Circular_buffer.drop_newer_than cb pivot;
  check Alcotest.int "length" 3 (Circular_buffer.length cb);
  check Alcotest.bool "pivot live" true (Circular_buffer.contains cb pivot);
  check Alcotest.bool "younger dead" false (Circular_buffer.contains cb (pivot + 1));
  (* the window reopens after a squash *)
  let s = Circular_buffer.enqueue cb 99 in
  check Alcotest.int "reuses squashed numbers upward" (pivot + 1) s;
  (* a sequence number past the newest entry drops nothing *)
  let cb = Circular_buffer.create ~capacity:8 in
  List.iter (fun i -> ignore (Circular_buffer.enqueue cb i)) [ 10; 11 ];
  Circular_buffer.drop_newer_than cb 5;
  check Alcotest.int "length after a drop past the newest" 2 (Circular_buffer.length cb);
  check Alcotest.bool "no future number is live" false (Circular_buffer.contains cb 3);
  check Alcotest.int "next number continues the window" 2 (Circular_buffer.enqueue cb 12);
  check Alcotest.int "newest entry readable" 12 (Circular_buffer.get cb 2)

let test_cb_iter_from () =
  let cb = Circular_buffer.create ~capacity:8 in
  List.iter (fun i -> ignore (Circular_buffer.enqueue cb i)) [ 10; 11; 12; 13 ];
  let acc = ref [] in
  Circular_buffer.iter_from cb 2 (fun _ v -> acc := v :: !acc);
  check Alcotest.(list int) "tail from seq 2" [ 12; 13 ] (List.rev !acc)

let prop_cb_set_get =
  QCheck.Test.make ~name:"circular buffer set/get" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 16) small_int)
    (fun values ->
      let cb = Circular_buffer.create ~capacity:16 in
      let seqs = List.map (fun v -> Circular_buffer.enqueue cb v) values in
      List.iter (fun s -> Circular_buffer.set cb s (Circular_buffer.get cb s * 2)) seqs;
      List.for_all2 (fun s v -> Circular_buffer.get cb s = v * 2) seqs values)

(* The in-place forms rewrite only the buffer they are given: the same
   values as the functional [shift_in_lsb], across limb boundaries. *)
let prop_shift_in_place =
  QCheck.Test.make ~name:"shift_in_lsb_in_place agrees with shift_in_lsb" ~count:200
    QCheck.(pair (int_range 1 130) (list_of_size (Gen.int_range 0 200) bool))
    (fun (w, bits) ->
      let buf = Bits.zero w in
      let copy = Bits.zero w in
      let v =
        List.fold_left
          (fun v b ->
            Bits.shift_in_lsb_in_place buf b;
            Bits.shift_in_lsb v b)
          (Bits.zero w) bits
      in
      Bits.blit ~src:buf ~dst:copy;
      Bits.shift_in_lsb_in_place buf true;
      Bits.equal copy v && Bits.equal buf (Bits.shift_in_lsb v true))

let test_bits_set_limb () =
  let b = Bits.zero 70 in
  Bits.set_limb b 1 0xFFFF;
  check Alcotest.string "top limb masked to the width" (String.make 8 '1' ^ String.make 62 '0')
    (Bits.to_string b);
  Alcotest.check_raises "width mismatch" (Invalid_argument "Bits.blit: width 70 into width 8")
    (fun () -> Bits.blit ~src:b ~dst:(Bits.zero 8))

(* --- Bitpack ------------------------------------------------------------- *)

let test_bitpack_roundtrip () =
  let layout = [ 1; 4; 3; 10 ] in
  let values = [ 1; 9; 5; 777 ] in
  let packed = Bitpack.pack ~width:18 (List.combine values layout) in
  check Alcotest.(list int) "unpack" values (Bitpack.unpack packed layout)

let test_bitpack_overflow () =
  Alcotest.check_raises "value too large"
    (Invalid_argument "Bitpack.pack: value 4 does not fit in 2 bits") (fun () ->
      ignore (Bitpack.pack ~width:2 [ (4, 2) ]))

let prop_bitpack_roundtrip =
  QCheck.Test.make ~name:"bitpack roundtrip" ~count:300
    QCheck.(list_of_size (Gen.int_range 1 8) (pair (int_bound 1000) (int_range 1 12)))
    (fun fields ->
      let fields = List.map (fun (v, w) -> (v land ((1 lsl w) - 1), w)) fields in
      let layout = List.map snd fields in
      let width = Bitpack.width_of layout in
      Bitpack.unpack (Bitpack.pack ~width fields) layout = List.map fst fields)

(* The incremental Packer must seal bit-identical vectors to the list-based
   pack into the caller's buffer, and per-field [extract_int] must read back
   exactly what unpack does — including fields straddling the 62-bit limb
   boundary (hence widths that push the total past 62). The same packer and
   buffer are reused across rounds, as the component hot paths do, with a
   stale pattern left in the buffer between rounds. *)
let packer_agrees fields =
  let fields = List.map (fun (v, w) -> (v land ((1 lsl w) - 1), w)) fields in
  let layout = List.map snd fields in
  let width = Bitpack.width_of layout in
  let packer = Bitpack.Packer.create ~owner:"test" ~width in
  let buf = Bits.zero width in
  List.for_all
    (fun _round ->
      List.iter (fun (v, bits) -> Bitpack.Packer.add packer v ~bits) fields;
      Bitpack.Packer.finish_into packer buf;
      let listwise = Bitpack.pack ~width fields in
      let same = Bits.equal buf listwise in
      let pos = ref 0 in
      let read_back =
        List.for_all
          (fun (v, bits) ->
            let got = Bits.extract_int buf ~lo:!pos ~len:bits in
            pos := !pos + bits;
            got = v)
          fields
      in
      for j = 0 to Bits.limb_count buf - 1 do
        Bits.set_limb buf j 0x2AAAAAAAAAAAAAAA
      done;
      same && read_back)
    [ 1; 2; 3 ]

let prop_packer_equivalence =
  QCheck.Test.make ~name:"Packer agrees with pack/unpack" ~count:300
    QCheck.(list_of_size (Gen.int_range 1 16) (pair (int_bound 100000) (int_range 0 20)))
    packer_agrees

(* Dead slots: [add_zeros] spans any number of bits, limb boundaries
   included, and composes with [field]-built words. *)
let test_packer_zeros_and_words () =
  let packer = Bitpack.Packer.create ~owner:"test" ~width:100 in
  let buf = Bits.init 100 (fun _ -> true) in
  let word = Bitpack.field 5 ~bits:3 lor (Bitpack.field 2 ~bits:2 lsl 3) in
  Bitpack.Packer.add packer word ~bits:5;
  Bitpack.Packer.add_zeros packer ~bits:90;
  Bitpack.Packer.add packer 0x1F ~bits:5;
  Bitpack.Packer.finish_into packer buf;
  check Alcotest.bool "same as the list form" true
    (Bits.equal buf
       (Bitpack.pack ~width:100 [ (5, 3); (2, 2); (0, 45); (0, 45); (0x1F, 5) ]))

(* The width check names the component and both widths, and leaves the
   packer reset for the next cycle. *)
let test_packer_width_refused () =
  let packer = Bitpack.Packer.create ~owner:"P" ~width:4 in
  Bitpack.Packer.add packer 9 ~bits:4;
  Alcotest.check_raises "refused"
    (Invalid_argument "component P returned 4 metadata bits, declared 8") (fun () ->
      Bitpack.Packer.finish_into packer (Bits.zero 8));
  Bitpack.Packer.add packer 6 ~bits:4;
  let buf = Bits.zero 4 in
  Bitpack.Packer.finish_into packer buf;
  check Alcotest.int "next cycle" 6 (Bits.to_int buf);
  Alcotest.check_raises "field overflow"
    (Invalid_argument "Bitpack.field: value 4 does not fit in 2 bits") (fun () ->
      ignore (Bitpack.field 4 ~bits:2))

(* A 0-bit field right after earlier fields fill whole limbs sits at a limb
   index one past the scratch array. *)
let test_packer_zero_width_at_limb_boundary () =
  List.iter
    (fun widths ->
      let fields = List.mapi (fun i w -> (i + 1, w)) (widths @ [ 0 ]) in
      check Alcotest.bool
        (Printf.sprintf "%d bits, then a 0-bit field" (Bitpack.width_of widths))
        true (packer_agrees fields))
    [ [ 20; 20; 22 ]; [ 30; 40; 54 ] ]

(* --- Stats --------------------------------------------------------------- *)

let test_harmonic_mean () =
  check (Alcotest.float 1e-9) "hmean" 1.2 (Stats.harmonic_mean [ 1.0; 1.5 ]);
  check (Alcotest.float 1e-9) "empty" 0.0 (Stats.harmonic_mean [])

let test_mpki () =
  check (Alcotest.float 1e-9) "mpki" 2.5 (Stats.mpki ~misses:25 ~instructions:10000)

(* --- Rng ----------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  let xs = List.init 20 (fun _ -> Rng.int a 1000) in
  let ys = List.init 20 (fun _ -> Rng.int b 1000) in
  check Alcotest.(list int) "same seed same stream" xs ys

let prop_rng_bound =
  QCheck.Test.make ~name:"rng respects bound" ~count:200
    QCheck.(pair (int_bound 10000) (int_range 1 50))
    (fun (seed, bound) ->
      let r = Rng.create ~seed in
      List.for_all (fun _ -> let v = Rng.int r bound in v >= 0 && v < bound)
        (List.init 50 Fun.id))

(* --- Env: the knob registry -------------------------------------------------- *)

(* README's knob table is the registry, row for row: name, default and
   meaning, with the table's backticks dropped. *)
let test_readme_knobs () =
  let strip s = String.trim (String.concat "" (String.split_on_char '`' s)) in
  let rows =
    In_channel.with_open_text "../README.md" In_channel.input_lines
    |> List.filter (String.starts_with ~prefix:"| `COBRA_")
    |> List.map (fun line ->
           match List.map strip (String.split_on_char '|' line) with
           | [ ""; name; default; doc; "" ] -> (name, default, doc)
           | _ -> Alcotest.failf "README knob row %S has not three cells" line)
  in
  let registry =
    List.map (fun (k : Env.knob) -> (k.Env.name, k.Env.default, k.Env.doc)) Env.knobs
  in
  check Alcotest.(list (triple string string string)) "README table = registry" registry rows

(* A malformed value for each knob; the path knobs take any non-blank value,
   so they have none. The table must name every registered knob. *)
let malformed =
  [
    ("COBRA_CACHE", Some "maybe");
    ("COBRA_CACHE_DIR", None);
    ("COBRA_EVENTS", None);
    ("COBRA_INSNS", Some "1e6");
    ("COBRA_JOBS", Some "0");
    ("COBRA_PROGRESS", Some "sometimes");
    ("COBRA_SEED", Some "abc");
    ("COBRA_STATS", Some "ture");
    ("COBRA_STATS_DIR", None);
    ("COBRA_WARM_CACHE", Some "-3");
  ]

(* [cobra list] with every inherited COBRA_* variable dropped and
   [name=value] added: its exit code and stderr. *)
let cobra_list name value =
  let cobra = Filename.concat ".." (Filename.concat "bin" "cobra_cli.exe") in
  let env =
    Printf.sprintf "%s=%s" name value
    :: List.filter
         (fun kv -> not (String.starts_with ~prefix:"COBRA_" kv))
         (Array.to_list (Unix.environment ()))
  in
  let err = Filename.temp_file "cobra_knob" ".err" in
  let err_fd = Unix.openfile err [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close err_fd;
        Unix.close null)
      (fun () ->
        Unix.create_process_env cobra [| cobra; "list" |] (Array.of_list env) null null err_fd)
  in
  let _, status = Unix.waitpid [] pid in
  let stderr = In_channel.with_open_text err In_channel.input_all in
  Sys.remove err;
  ((match status with Unix.WEXITED c -> c | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> -1), stderr)

(* The message names [name] first: [cobra: NAME: ...] or [cobra: NAME = ...].
   A bare substring test would pass on the list of knobs that the message
   for an unknown name prints. *)
let names_first stderr name =
  let prefix = "cobra: " ^ name in
  let n = String.length prefix in
  String.starts_with ~prefix stderr && String.length stderr > n
  && (stderr.[n] = ':' || stderr.[n] = ' ')

(* One process at a time: each bad knob, and a name that is not a knob,
   stops [cobra] with exit 124 and names the variable. *)
let test_cobra_refuses_bad_knobs () =
  check Alcotest.(list string) "a malformed value for every knob"
    (List.map (fun (k : Env.knob) -> k.Env.name) Env.knobs)
    (List.map fst malformed);
  let refused name value =
    let code, stderr = cobra_list name value in
    check Alcotest.int (Printf.sprintf "%s=%s exits 124" name value) 124 code;
    if not (names_first stderr name) then
      Alcotest.failf "%s=%s: stderr %S does not name the variable" name value stderr
  in
  List.iter
    (fun (name, bad) ->
      match bad with
      | Some value -> refused name value
      | None ->
        check Alcotest.int (name ^ " takes any path") 0 (fst (cobra_list name "some/dir")))
    malformed;
  refused "COBRA_JOB" "8"

let () =
  Alcotest.run "cobra_util"
    [
      ( "bits",
        [
          Alcotest.test_case "roundtrip" `Quick test_bits_roundtrip;
          Alcotest.test_case "wide vectors" `Quick test_bits_wide;
          Alcotest.test_case "shift_in_lsb" `Quick test_bits_shift_in;
          Alcotest.test_case "extract" `Quick test_bits_extract;
          Alcotest.test_case "concat" `Quick test_bits_concat;
          Alcotest.test_case "fold_xor" `Quick test_bits_fold_xor;
          Prop.test_case prop_bits_string_roundtrip;
          Prop.test_case prop_bits_set_get;
          Prop.test_case prop_shift_in_window;
          Prop.test_case prop_shift_in_place;
          Alcotest.test_case "set_limb and blit" `Quick test_bits_set_limb;
        ] );
      ( "counter",
        [
          Alcotest.test_case "saturation" `Quick test_counter_saturation;
          Prop.test_case prop_counter_bounds;
          Prop.test_case prop_signed_counter_bounds;
        ] );
      ( "hashing",
        [
          Alcotest.test_case "fold_int" `Quick test_fold_int;
          Prop.test_case prop_fold_in_range;
          Prop.test_case prop_fold_matches_full_width;
          Prop.test_case prop_folded_history_matches_reference;
        ] );
      ( "circular_buffer",
        [
          Alcotest.test_case "fifo order" `Quick test_cb_fifo_order;
          Alcotest.test_case "full" `Quick test_cb_full;
          Alcotest.test_case "drop newer" `Quick test_cb_drop_newer;
          Alcotest.test_case "iter_from" `Quick test_cb_iter_from;
          Prop.test_case prop_cb_set_get;
        ] );
      ( "bitpack",
        [
          Alcotest.test_case "roundtrip" `Quick test_bitpack_roundtrip;
          Alcotest.test_case "overflow" `Quick test_bitpack_overflow;
          Prop.test_case prop_bitpack_roundtrip;
          Prop.test_case prop_packer_equivalence;
          Alcotest.test_case "Packer zeros and composed words" `Quick test_packer_zeros_and_words;
          Alcotest.test_case "Packer width refused" `Quick test_packer_width_refused;
          Alcotest.test_case "Packer 0-bit field at a limb boundary" `Quick
            test_packer_zero_width_at_limb_boundary;
        ] );
      ( "stats",
        [
          Alcotest.test_case "harmonic mean" `Quick test_harmonic_mean;
          Alcotest.test_case "mpki" `Quick test_mpki;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Prop.test_case prop_rng_bound;
        ] );
      ( "env",
        [
          Alcotest.test_case "README table is the registry" `Quick test_readme_knobs;
          Alcotest.test_case "cobra refuses each bad knob" `Quick test_cobra_refuses_bad_knobs;
        ] );
    ]
