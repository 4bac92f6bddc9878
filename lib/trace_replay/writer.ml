type t = {
  oc : out_channel;
  fmt : Btrace.format;
  buf : Buffer.t;
  mutable count : int;
  mutable closed : bool;
}

let flush_threshold = 60 * 1024

let create ?(format = Btrace.Binary) path =
  let oc = open_out_bin path in
  let buf = Buffer.create (flush_threshold + 1024) in
  (match format with
  | Btrace.Binary -> Buffer.add_string buf Btrace.magic
  | Btrace.Text ->
    Buffer.add_string buf Btrace.text_header;
    Buffer.add_char buf '\n');
  { oc; fmt = format; buf; count = 0; closed = false }

let drain t =
  Buffer.output_buffer t.oc t.buf;
  Buffer.clear t.buf

let add t r =
  if t.closed then invalid_arg "Writer.add: writer is closed";
  (match t.fmt with
  | Btrace.Binary -> Btrace.encode_record t.buf r
  | Btrace.Text ->
    Buffer.add_string t.buf (Btrace.record_to_line r);
    Buffer.add_char t.buf '\n');
  t.count <- t.count + 1;
  if Buffer.length t.buf >= flush_threshold then drain t

let added t = t.count

let close t =
  if not t.closed then begin
    t.closed <- true;
    drain t;
    close_out t.oc
  end

let with_file ?format path f =
  let t = create ?format path in
  Fun.protect ~finally:(fun () -> close t) (fun () -> f t)

let save ?format path records = with_file ?format path (fun t -> List.iter (add t) records)

let export_stream ?format ?max_branches ?max_insns ~path stream =
  (match (max_branches, max_insns) with
  | None, None ->
    invalid_arg "Writer.export_stream: need max_branches and/or max_insns (streams are infinite)"
  | _ -> ());
  let branch_cap = Option.value max_branches ~default:max_int in
  let records = Btrace.of_stream ?max_insns stream in
  with_file ?format path (fun t ->
      let branches = ref 0 and insns = ref 0 in
      let continue_ = ref true in
      while !continue_ && !branches < branch_cap do
        match records () with
        | None -> continue_ := false
        | Some r ->
          add t r;
          incr branches;
          insns := !insns + Btrace.insns r
      done;
      (!branches, !insns))

let export_workload ?format ?max_branches ?max_insns ~path
    (entry : Cobra_workloads.Suite.entry) =
  export_stream ?format ?max_branches ?max_insns ~path
    (entry.Cobra_workloads.Suite.make ())
