let sanitize s =
  String.map
    (fun c ->
      match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> c | _ -> '-')
    s

let ensure_dir dir =
  if not (Sys.file_exists dir) then (
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())

(* Atomic write: temp file in the destination directory, then rename. *)
let write_file path contents =
  let dir = Filename.dirname path in
  let tmp = Filename.temp_file ~temp_dir:dir ".cobra_stats" ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents);
  Sys.rename tmp path

let basename ?(variant = "") (r : Report.t) =
  Printf.sprintf "%s__%s%s"
    (sanitize (if r.Report.design = "" then "design" else r.Report.design))
    (sanitize (if r.Report.workload = "" then "workload" else r.Report.workload))
    (if variant = "" then "" else "__" ^ sanitize variant)

let write ?variant ~dir r =
  let fail reason =
    failwith (Printf.sprintf "cannot write the statistics report to %s: %s" dir reason)
  in
  let base = Filename.concat dir (basename ?variant r) in
  try
    ensure_dir dir;
    write_file (base ^ ".json") (Json.to_string (Report.to_json r) ^ "\n");
    write_file (base ^ ".csv") (Report.to_csv r)
  with
  | Sys_error m -> fail m
  | Unix.Unix_error (e, _, _) -> fail (Unix.error_message e)
