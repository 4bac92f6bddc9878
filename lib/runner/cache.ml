module Perf = Cobra_uarch.Perf

type key = string (* hex digest *)

let format_version = 1

let enabled () = Cobra_util.Env.(get cache)
let dir () = Cobra_util.Env.(get cache_dir)

let key parts =
  let spec =
    String.concat "\x00" (Printf.sprintf "cobra-cache-v%d" format_version :: parts)
  in
  Digest.to_hex (Digest.string spec)

let hex k = k
let path k = Filename.concat (dir ()) (k ^ ".perf")

(* Serialized layout: a magic/version line, one "<counter> <int>" line per
   counter in [Perf.counters]' order, and a trailing checksum line over all
   values. Hand-rolled so a corrupt or truncated file degrades to a miss. *)

let magic = Printf.sprintf "cobra-perf %d" format_version

let checksum values = List.fold_left (fun acc v -> (acc + v) land 0x3FFFFFFF) 0 values

let serialize p =
  let counters = Perf.counters p in
  let buf = Buffer.create 256 in
  Buffer.add_string buf magic;
  Buffer.add_char buf '\n';
  List.iter (fun (name, v) -> Printf.bprintf buf "%s %d\n" name v) counters;
  Printf.bprintf buf "checksum %d\n" (checksum (List.map snd counters));
  Buffer.contents buf

(* Counter lines up to the checksum line, which must match them; then
   [Perf.of_counters] checks the names, their order and their number. *)
let parse text =
  match String.split_on_char '\n' text with
  | m :: lines when String.equal m magic ->
    let rec go named = function
      | line :: lines -> (
        match String.split_on_char ' ' line with
        | [ "checksum"; c ] ->
          let named = List.rev named in
          if int_of_string c = checksum (List.map snd named) then Perf.of_counters named
          else None
        | [ name; v ] -> go ((name, int_of_string v) :: named) lines
        | _ -> None)
      | [] -> None
    in
    go [] lines
  | _ -> None

let load k =
  let file = path k in
  match In_channel.with_open_bin file In_channel.input_all with
  | text -> ( try parse text with _ -> None)
  | exception _ -> None

let mkdir_p d =
  let rec go d =
    if not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go d

let tmp_counter = Atomic.make 0

(* Temporary files left by writers killed between create and rename would
   otherwise accumulate forever. A live writer renames within milliseconds,
   so anything [.tmp.*] older than an hour is orphaned and safe to unlink.
   The sweep itself is best-effort: it must never turn a working store into
   a failure. *)
let stale_tmp_age = 3600.0

let sweep_stale_tmp d =
  match Sys.readdir d with
  | exception Sys_error _ -> ()
  | names ->
    let now = Unix.gettimeofday () in
    Array.iter
      (fun name ->
        if String.length name >= 5 && String.sub name 0 5 = ".tmp." then begin
          let f = Filename.concat d name in
          match Unix.stat f with
          | st when now -. st.Unix.st_mtime > stale_tmp_age -> (
            try Sys.remove f with Sys_error _ -> ())
          | _ -> ()
          | exception Unix.Unix_error _ -> ()
        end)
      names

let store k p =
  let d = dir () in
  match
    mkdir_p d;
    sweep_stale_tmp d;
    let tmp =
      Filename.concat d
        (Printf.sprintf ".tmp.%d.%d.%d" (Unix.getpid ())
           (Domain.self () :> int)
           (Atomic.fetch_and_add tmp_counter 1))
    in
    (try
       Out_channel.with_open_bin tmp (fun oc -> Out_channel.output_string oc (serialize p));
       Sys.rename tmp (path k)
     with e ->
       (* don't leave our own orphan behind on a failed write/rename *)
       (try Sys.remove tmp with Sys_error _ -> ());
       raise e)
  with
  | () -> Ok ()
  | exception e -> Error (Printexc.to_string e)
