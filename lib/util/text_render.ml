let float_cell ?(decimals = 2) v = Printf.sprintf "%.*f" decimals v

let looks_numeric s =
  s <> ""
  && String.for_all (fun c -> (c >= '0' && c <= '9') || c = '.' || c = '-' || c = '+' || c = '%') s

let pad_cell width s =
  let n = String.length s in
  if n >= width then s
  else if looks_numeric s then String.make (width - n) ' ' ^ s
  else s ^ String.make (width - n) ' '

let table ?title ~header ~rows () =
  let all = header :: rows in
  let ncols = List.fold_left (fun acc r -> max acc (List.length r)) 0 all in
  let cell row i = match List.nth_opt row i with Some c -> c | None -> "" in
  let widths =
    Array.init ncols (fun i ->
        List.fold_left (fun acc r -> max acc (String.length (cell r i))) 0 all)
  in
  let buf = Buffer.create 256 in
  let line ch =
    Buffer.add_char buf '+';
    Array.iter
      (fun w ->
        Buffer.add_string buf (String.make (w + 2) ch);
        Buffer.add_char buf '+')
      widths;
    Buffer.add_char buf '\n'
  in
  let emit_row row =
    Buffer.add_char buf '|';
    Array.iteri
      (fun i w ->
        Buffer.add_char buf ' ';
        Buffer.add_string buf (pad_cell w (cell row i));
        Buffer.add_string buf " |")
      widths;
    Buffer.add_char buf '\n'
  in
  (match title with
  | Some t ->
    Buffer.add_string buf t;
    Buffer.add_char buf '\n'
  | None -> ());
  line '-';
  emit_row header;
  line '=';
  List.iter emit_row rows;
  line '-';
  Buffer.contents buf

let bar ~width ~max_value v =
  if max_value <= 0.0 then ""
  else
    let n = int_of_float (Float.round (v /. max_value *. float_of_int width)) in
    String.make (max 0 (min width n)) '#'

let bar_chart ~title ~unit entries =
  let width = 50 in
  let max_value = List.fold_left (fun acc (_, v) -> Float.max acc v) 0.0 entries in
  let label_w = List.fold_left (fun acc (l, _) -> max acc (String.length l)) 0 entries in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "%s (%s)\n" title unit);
  List.iter
    (fun (label, v) ->
      Buffer.add_string buf
        (Printf.sprintf "  %-*s | %-*s %8.3f\n" label_w label width (bar ~width ~max_value v) v))
    entries;
  Buffer.contents buf

let grouped_bar_chart ~title ~unit ~series entries =
  let width = 42 in
  let max_value =
    List.fold_left (fun acc (_, vs) -> List.fold_left Float.max acc vs) 0.0 entries
  in
  let label_w =
    List.fold_left max 0
      (List.map String.length series @ List.map (fun (l, _) -> String.length l) entries)
  in
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Printf.sprintf "%s (%s)\n" title unit);
  List.iter
    (fun (label, values) ->
      Buffer.add_string buf (Printf.sprintf "  %s\n" label);
      List.iteri
        (fun i v ->
          let name = match List.nth_opt series i with Some s -> s | None -> "?" in
          Buffer.add_string buf
            (Printf.sprintf "    %-*s | %-*s %8.3f\n" label_w name width
               (bar ~width ~max_value v) v))
        values)
    entries;
  Buffer.contents buf

let stacked_rows ~title ~unit ~parts entries =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Printf.sprintf "%s (%s)\n" title unit);
  let part_w = List.fold_left (fun acc p -> max acc (String.length p)) 0 parts in
  List.iter
    (fun (label, values) ->
      let total = List.fold_left ( +. ) 0.0 values in
      Buffer.add_string buf (Printf.sprintf "  %s  [total %.3f %s]\n" label total unit);
      List.iteri
        (fun i v ->
          let name = match List.nth_opt parts i with Some p -> p | None -> "?" in
          let pct = if total > 0.0 then v /. total *. 100.0 else 0.0 in
          Buffer.add_string buf (Printf.sprintf "    %-*s %10.3f  (%5.1f%%)\n" part_w name v pct))
        values)
    entries;
  Buffer.contents buf
