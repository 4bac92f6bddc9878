type t = {
  ic : in_channel;
  r_path : string;
  buf : Bytes.t;
  mutable pos : int;  (** next unconsumed byte in [buf] *)
  mutable len : int;  (** valid bytes in [buf] *)
  mutable base : int;  (** stream offset of [buf.(0)] *)
  mutable eof : bool;
  fmt : Btrace.format;
  mutable lnum : int;
  mutable closed : bool;
}

let format t = t.fmt
let path t = t.r_path
let offset t = t.base + t.pos
let line t = t.lnum

let min_buffer = 512
let default_buffer = 64 * 1024

let fail t fmt = Printf.ksprintf (fun m -> failwith (t.r_path ^ ": " ^ m)) fmt

(* Slide the unconsumed tail to the front and top the buffer up. No-op once
   EOF is seen or when the buffer is already full of unconsumed bytes. *)
let refill t =
  if not t.eof then begin
    if t.pos > 0 then begin
      let live = t.len - t.pos in
      if live > 0 then Bytes.blit t.buf t.pos t.buf 0 live;
      t.base <- t.base + t.pos;
      t.len <- live;
      t.pos <- 0
    end;
    let space = Bytes.length t.buf - t.len in
    if space > 0 then begin
      let n = input t.ic t.buf t.len space in
      if n = 0 then t.eof <- true else t.len <- t.len + n
    end
  end

let open_file ?(buffer_size = default_buffer) p =
  let ic = open_in_bin p in
  let buf = Bytes.create (max min_buffer buffer_size) in
  let t =
    {
      ic;
      r_path = p;
      buf;
      pos = 0;
      len = 0;
      base = 0;
      eof = false;
      fmt = Btrace.Text;
      lnum = 0;
      closed = false;
    }
  in
  (* sniff: a full magic prefix means binary, anything else is text *)
  while (not t.eof) && t.len < String.length Btrace.magic do
    refill t
  done;
  let is_binary =
    t.len >= String.length Btrace.magic
    && String.equal (Bytes.sub_string t.buf 0 (String.length Btrace.magic)) Btrace.magic
  in
  if is_binary then begin
    t.pos <- String.length Btrace.magic;
    { t with fmt = Btrace.Binary }
  end
  else t

let close t =
  if not t.closed then begin
    t.closed <- true;
    close_in_noerr t.ic
  end

let seek t off =
  if t.closed then invalid_arg "Reader.seek: reader is closed";
  if off < 0 then invalid_arg "Reader.seek: negative offset";
  seek_in t.ic off;
  t.base <- off;
  t.pos <- 0;
  t.len <- 0;
  t.eof <- false

let rec read_binary t c =
  let n =
    (* a handler costs no allocation, so the read stays allocation-free *)
    match Btrace.decode t.buf ~pos:t.pos ~limit:t.len ~abs_offset:(t.base + t.pos) c with
    | n -> n
    | exception Failure m -> failwith (t.r_path ^ ": " ^ m)
  in
  if n > 0 then begin
    t.pos <- t.pos + n;
    true
  end
  else if t.eof then
    if t.pos = t.len then false
    else
      fail t "byte %d: truncated record (%d trailing bytes at end of file)" (t.base + t.pos)
        (t.len - t.pos)
  else begin
    refill t;
    read_binary t c
  end

let rec next_text t =
  (* Index of the next newline at or after [t.pos], refilling as needed;
     [None] means the input ends without one. *)
  let rec find_eol i =
    if i < t.len then
      if Bytes.unsafe_get t.buf i = '\n' then Some i else find_eol (i + 1)
    else if t.eof then None
    else begin
      if t.pos = 0 && t.len = Bytes.length t.buf then
        fail t "line %d: line longer than the %d-byte read buffer" (t.lnum + 1)
          (Bytes.length t.buf);
      let scanned = i - t.pos in
      refill t;
      (* the tail slid to offset 0; resume where the scan left off *)
      find_eol (t.pos + scanned)
    end
  in
  if t.pos >= t.len && t.eof then None
  else
    match find_eol t.pos with
    | None ->
      (* final line without a trailing newline *)
      if t.pos >= t.len then None
      else begin
        let s = Bytes.sub_string t.buf t.pos (t.len - t.pos) in
        t.pos <- t.len;
        t.lnum <- t.lnum + 1;
        consume_line t s
      end
    | Some eol ->
      let s = Bytes.sub_string t.buf t.pos (eol - t.pos) in
      t.pos <- eol + 1;
      t.lnum <- t.lnum + 1;
      consume_line t s

and consume_line t s =
  match Btrace.record_of_line ~lnum:t.lnum s with
  | Some _ as r -> r
  | None -> next_text t
  | exception Failure m -> failwith (t.r_path ^ ": " ^ m)

let read t c =
  if t.closed then invalid_arg "Reader.read: reader is closed";
  match t.fmt with
  | Btrace.Binary -> read_binary t c
  | Btrace.Text -> (
    match next_text t with
    | Some r ->
      Btrace.fill c r;
      true
    | None -> false)

let next t =
  let c = Btrace.cursor () in
  if read t c then Some (Btrace.to_record c) else None

let with_file ?buffer_size p f =
  let t = open_file ?buffer_size p in
  Fun.protect ~finally:(fun () -> close t) (fun () -> f t)

let fold ?buffer_size p ~init ~f =
  with_file ?buffer_size p (fun t ->
      let rec go acc = match next t with None -> acc | Some r -> go (f acc r) in
      go init)

let load ?buffer_size ?(limit = max_int) p =
  with_file ?buffer_size p (fun t ->
      let rec go acc n =
        if n >= limit then List.rev acc
        else match next t with None -> List.rev acc | Some r -> go (r :: acc) (n + 1)
      in
      go [] 0)

type detected = Branch_binary | Branch_text | Other

let detect p =
  match open_file ~buffer_size:min_buffer p with
  | exception Sys_error _ -> Other
  | t ->
    Fun.protect
      ~finally:(fun () -> close t)
      (fun () ->
        if t.fmt = Btrace.Binary then Branch_binary
        else begin
          (* look through the sniff window for the self-identifying header *)
          let header_seen = ref false in
          let i = ref 0 in
          while (not !header_seen) && !i < t.len do
            let eol =
              match Bytes.index_from_opt t.buf !i '\n' with
              | Some e when e < t.len -> e
              | _ -> t.len
            in
            if String.trim (Bytes.sub_string t.buf !i (eol - !i)) = Btrace.text_header
            then header_seen := true;
            i := eol + 1
          done;
          if !header_seen then Branch_text
          else
            match next t with
            | Some _ -> Branch_text
            | None -> Other
            | exception Failure _ -> Other
        end)
