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

(* Serialized layout: a magic/version line, one "<field> <int>" line per
   counter in a fixed order, and a trailing checksum line over all values.
   Hand-rolled so a corrupt or truncated file degrades to a miss. *)

let magic = Printf.sprintf "cobra-perf %d" format_version

let fields (p : Perf.t) =
  [
    ("cycles", p.Perf.cycles);
    ("instructions", p.Perf.instructions);
    ("branches", p.Perf.branches);
    ("cond_branches", p.Perf.cond_branches);
    ("mispredicts", p.Perf.mispredicts);
    ("cond_mispredicts", p.Perf.cond_mispredicts);
    ("misfetches", p.Perf.misfetches);
    ("history_divergences", p.Perf.history_divergences);
    ("replays", p.Perf.replays);
    ("flushes", p.Perf.flushes);
    ("fetch_packets", p.Perf.fetch_packets);
    ("wrong_path_packets", p.Perf.wrong_path_packets);
    ("icache_stall_cycles", p.Perf.icache_stall_cycles);
    ("frontend_stall_cycles", p.Perf.frontend_stall_cycles);
  ]

let checksum values = List.fold_left (fun acc v -> (acc + v) land 0x3FFFFFFF) 0 values

let serialize p =
  let fs = fields p in
  let buf = Buffer.create 256 in
  Buffer.add_string buf magic;
  Buffer.add_char buf '\n';
  List.iter (fun (name, v) -> Buffer.add_string buf (Printf.sprintf "%s %d\n" name v)) fs;
  Buffer.add_string buf (Printf.sprintf "checksum %d\n" (checksum (List.map snd fs)));
  Buffer.contents buf

let parse text =
  match String.split_on_char '\n' text with
  | m :: lines when String.equal m magic ->
    let p = Perf.create () in
    let expect = fields p in
    let rec go lines expect values =
      match (lines, expect) with
      | line :: rest, (name, _) :: expect_rest ->
        ( match String.index_opt line ' ' with
        | Some i when String.equal (String.sub line 0 i) name ->
          let v = int_of_string (String.sub line (i + 1) (String.length line - i - 1)) in
          go rest expect_rest (v :: values)
        | Some _ | None -> None )
      | line :: _, [] -> (
        match String.split_on_char ' ' line with
        | [ "checksum"; c ] when int_of_string c = checksum (List.rev values) ->
          Some (List.rev values)
        | _ -> None )
      | [], _ -> None
    in
    ( match go lines expect [] with
    | Some
        [
          cycles; instructions; branches; cond_branches; mispredicts; cond_mispredicts;
          misfetches; history_divergences; replays; flushes; fetch_packets;
          wrong_path_packets; icache_stall_cycles; frontend_stall_cycles;
        ] ->
      p.Perf.cycles <- cycles;
      p.Perf.instructions <- instructions;
      p.Perf.branches <- branches;
      p.Perf.cond_branches <- cond_branches;
      p.Perf.mispredicts <- mispredicts;
      p.Perf.cond_mispredicts <- cond_mispredicts;
      p.Perf.misfetches <- misfetches;
      p.Perf.history_divergences <- history_divergences;
      p.Perf.replays <- replays;
      p.Perf.flushes <- flushes;
      p.Perf.fetch_packets <- fetch_packets;
      p.Perf.wrong_path_packets <- wrong_path_packets;
      p.Perf.icache_stall_cycles <- icache_stall_cycles;
      p.Perf.frontend_stall_cycles <- frontend_stall_cycles;
      Some p
    | Some _ | None -> None )
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
