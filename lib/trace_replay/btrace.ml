open Cobra

type record = {
  b_pc : int;
  b_taken : bool;
  b_kind : Types.branch_kind;
  b_target : int;
  b_gap : int;
}

type format = Binary | Text

let no_target = -1

let cond ?(gap = 0) ?(target = no_target) ~pc ~taken () =
  { b_pc = pc; b_taken = taken; b_kind = Types.Cond; b_target = target; b_gap = gap }

let insns r = r.b_gap + 1

let equal_record a b =
  a.b_pc = b.b_pc && a.b_taken = b.b_taken
  && Types.equal_branch_kind a.b_kind b.b_kind
  && a.b_target = b.b_target && a.b_gap = b.b_gap

let kind_char = function
  | Types.Cond -> 'C'
  | Types.Jump -> 'J'
  | Types.Call -> 'A'
  | Types.Ret -> 'R'
  | Types.Ind -> 'I'

let kind_of_char = function
  | 'C' -> Some Types.Cond
  | 'J' -> Some Types.Jump
  | 'A' -> Some Types.Call
  | 'R' -> Some Types.Ret
  | 'I' -> Some Types.Ind
  | _ -> None

let show_record r =
  Printf.sprintf "{pc=0x%x taken=%b kind=%c target=%s gap=%d}" r.b_pc r.b_taken
    (kind_char r.b_kind)
    (if r.b_target >= 0 then Printf.sprintf "0x%x" r.b_target else "-")
    r.b_gap

let validate r =
  if r.b_pc < 0 then Error (Printf.sprintf "negative pc %d" r.b_pc)
  else if r.b_gap < 0 then Error (Printf.sprintf "negative gap %d" r.b_gap)
  else if r.b_target < no_target then
    Error (Printf.sprintf "invalid target %d" r.b_target)
  else Ok ()

let validate_exn ~who r =
  match validate r with
  | Ok () -> ()
  | Error m -> invalid_arg (Printf.sprintf "%s: %s in %s" who m (show_record r))

let magic = "COBT1"
let text_header = "# cobra-branch-trace v1"

(* --- binary codec ----------------------------------------------------------- *)

(* Records are self-delimiting: a tag byte, then LEB128 varints. The varint
   cap of 9 payload bytes bounds values to 63 bits (OCaml int) and makes the
   longest possible record 1 + 3*9 bytes, far below any refill window. *)

let max_varint_bytes = 9

let add_varint buf n =
  let rec go n =
    if n < 0x80 then Buffer.add_char buf (Char.chr n)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (n land 0x7f)));
      go (n lsr 7)
    end
  in
  go n

let tag_of r =
  (if r.b_taken then 1 else 0)
  lor (Types.branch_kind_to_int r.b_kind lsl 1)
  lor (if r.b_target >= 0 then 0x10 else 0)
  lor (if r.b_gap > 0 then 0x20 else 0)

let encode_record buf r =
  validate_exn ~who:"Btrace.encode_record" r;
  Buffer.add_char buf (Char.chr (tag_of r));
  add_varint buf r.b_pc;
  if r.b_target >= 0 then add_varint buf r.b_target;
  if r.b_gap > 0 then add_varint buf r.b_gap

type cursor = {
  mutable c_pc : int;
  mutable c_taken : bool;
  mutable c_kind : Types.branch_kind;
  mutable c_target : int;
  mutable c_gap : int;
}

let cursor () = { c_pc = 0; c_taken = false; c_kind = Types.Cond; c_target = no_target; c_gap = 0 }

let fill c r =
  c.c_pc <- r.b_pc;
  c.c_taken <- r.b_taken;
  c.c_kind <- r.b_kind;
  c.c_target <- r.b_target;
  c.c_gap <- r.b_gap

let to_record c =
  { b_pc = c.c_pc; b_taken = c.c_taken; b_kind = c.c_kind; b_target = c.c_target; b_gap = c.c_gap }

let cursor_insns c = c.c_gap + 1

let varint_overflow at =
  failwith (Printf.sprintf "byte %d: varint exceeds 63 bits (corrupt or overlong)" at)

(* The tag's 3-bit kind field, converted once per code; [None] marks a code
   that names no kind. *)
let kind_of_code =
  Array.init 8 (fun code ->
      match Types.branch_kind_of_int code with
      | k -> Some k
      | exception Invalid_argument _ -> None)

(* The record's varints by threaded-argument recursion, so a decode
   allocates nothing: [field] is the varint in progress (0 pc, 1 target,
   2 gap), [shift], [acc] and [seen] its partial value, [pc] and [target]
   the finished ones; [base + p] is the stream offset of [bytes.(p)].
   Returns the bytes consumed since [start], or 0 when the window ends
   first. A varint that would not fit 63 bits, or is non-minimally encoded
   (the writer never pads, so a redundant final 0x00 means a corrupt or
   adversarial stream, not a value), fails at its offending byte. *)
let rec varints bytes ~base ~start ~limit c tag kind p field shift acc seen pc target =
  if seen > max_varint_bytes then varint_overflow (base + p)
  else if p >= limit then 0
  else
    let b = Char.code (Bytes.unsafe_get bytes p) in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    (* bit 62 set: the value would not survive the OCaml int sign bit *)
    if acc < 0 then varint_overflow (base + p)
    else if b land 0x80 <> 0 then
      varints bytes ~base ~start ~limit c tag kind (p + 1) field (shift + 7) acc (seen + 1) pc
        target
    else if b = 0 && seen > 1 then
      failwith
        (Printf.sprintf "byte %d: non-minimal varint (redundant trailing 0x00 after %d bytes)"
           (base + p) seen)
    else
      let pc = if field = 0 then acc else pc and target = if field = 1 then acc else target in
      if field < 1 && tag land 0x10 <> 0 then
        varints bytes ~base ~start ~limit c tag kind (p + 1) 1 0 0 1 pc target
      else if field < 2 && tag land 0x20 <> 0 then
        varints bytes ~base ~start ~limit c tag kind (p + 1) 2 0 0 1 pc target
      else begin
        c.c_pc <- pc;
        c.c_taken <- tag land 1 <> 0;
        c.c_kind <- kind;
        c.c_target <- target;
        c.c_gap <- (if field = 2 then acc else 0);
        p + 1 - start
      end

let decode bytes ~pos ~limit ~abs_offset c =
  if pos >= limit then 0
  else begin
    let tag = Char.code (Bytes.unsafe_get bytes pos) in
    if tag land 0xc0 <> 0 then
      failwith
        (Printf.sprintf "byte %d: corrupt record tag 0x%02x (reserved bits set)" abs_offset tag);
    match kind_of_code.((tag lsr 1) land 0x7) with
    | None ->
      failwith
        (Printf.sprintf "byte %d: corrupt record tag 0x%02x (bad branch kind %d)" abs_offset tag
           ((tag lsr 1) land 0x7))
    | Some kind ->
      varints bytes ~base:(abs_offset - pos) ~start:pos ~limit c tag kind (pos + 1) 0 0 0 1 0
        no_target
  end

(* --- text codec -------------------------------------------------------------- *)

let record_to_line r =
  validate_exn ~who:"Btrace.record_to_line" r;
  Printf.sprintf "%x %c %c %s %d" r.b_pc
    (if r.b_taken then 'T' else 'N')
    (kind_char r.b_kind)
    (if r.b_target >= 0 then Printf.sprintf "%x" r.b_target else "-")
    r.b_gap

let record_of_line ?lnum line =
  let where =
    match lnum with None -> "" | Some n -> Printf.sprintf "line %d: " n
  in
  let fail fmt = Printf.ksprintf (fun m -> failwith (where ^ m)) fmt in
  let line' = String.trim line in
  if line' = "" || line'.[0] = '#' then None
  else
    match String.split_on_char ' ' line' |> List.filter (fun s -> s <> "") with
    | [ pc_s; taken_s; kind_s; target_s; gap_s ] ->
      let hex name s =
        match int_of_string_opt ("0x" ^ s) with
        | Some v when v >= 0 -> v
        | Some v -> fail "negative %s %d in %S" name v line'
        | None -> fail "bad %s %S in %S" name s line'
      in
      let taken =
        match taken_s with
        | "T" -> true
        | "N" -> false
        | s -> fail "bad taken flag %S (want T or N) in %S" s line'
      in
      let kind =
        match if String.length kind_s = 1 then kind_of_char kind_s.[0] else None with
        | Some k -> k
        | None -> fail "bad branch kind %S (want C, J, A, R or I) in %S" kind_s line'
      in
      let target = if target_s = "-" then no_target else hex "target" target_s in
      let gap =
        match int_of_string_opt gap_s with
        | Some g when g >= 0 -> g
        | Some g -> fail "negative gap %d in %S" g line'
        | None -> fail "bad gap %S in %S" gap_s line'
      in
      Some { b_pc = hex "pc" pc_s; b_taken = taken; b_kind = kind; b_target = target; b_gap = gap }
    | fields -> fail "expected 5 fields, got %d in %S" (List.length fields) line'

(* --- conversion from instruction traces -------------------------------------- *)

let of_event ~gap (ev : Cobra_isa.Trace.event) =
  match ev.Cobra_isa.Trace.branch with
  | None -> None
  | Some info ->
    Some
      {
        b_pc = ev.Cobra_isa.Trace.pc;
        b_taken = info.Cobra_isa.Trace.taken;
        b_kind = info.Cobra_isa.Trace.kind;
        b_target = info.Cobra_isa.Trace.target;
        b_gap = gap;
      }

let of_stream ?(max_insns = max_int) stream =
  let consumed = ref 0 in
  let rec next gap =
    if !consumed >= max_insns then None
    else
      match stream () with
      | None -> None
      | Some ev -> (
        incr consumed;
        match of_event ~gap ev with None -> next (gap + 1) | some -> some)
  in
  fun () -> next 0
