(* Tracing spans around the benchmark's own calls into the library.

   Spans are off unless the run is traced: [with_] is then one test of a
   bool and a direct call, so untraced end-to-end numbers measure the
   library alone. Spans are kept in memory and written once, at exit. *)

type t = {
  id : int;
  parent : int;  (** 0 for a root span *)
  name : string;  (** "<layer>.<call>" *)
  rid : string;  (** request id shared by the spans of one serve request *)
  start_s : float;
  end_s : float;
}

let enabled = ref false
let recorded : t list ref = ref []
let open_ids : int list ref = ref []
let last_id = ref 0

let with_ ?(rid = "") name f =
  if not !enabled then f ()
  else begin
    incr last_id;
    let id = !last_id in
    let parent = match !open_ids with p :: _ -> p | [] -> 0 in
    open_ids := id :: !open_ids;
    let start_s = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        open_ids := List.tl !open_ids;
        recorded :=
          { id; parent; name; rid; start_s; end_s = Unix.gettimeofday () } :: !recorded)
      f
  end

let count () = List.length !recorded
let duration s = s.end_s -. s.start_s

let durations name =
  List.filter_map (fun s -> if s.name = name then Some (duration s) else None) !recorded

let layer name =
  match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

(* A span's self time is its duration minus the part its direct children
   cover; children of one parent never overlap, as the benchmark is single
   threaded. Summed per layer, largest first. *)
let self_times () =
  let add tbl k v =
    Hashtbl.replace tbl k (v +. Option.value (Hashtbl.find_opt tbl k) ~default:0.0)
  in
  let covered = Hashtbl.create 256 in
  List.iter (fun s -> if s.parent <> 0 then add covered s.parent (duration s)) !recorded;
  let by_layer = Hashtbl.create 16 in
  List.iter
    (fun s ->
      add by_layer (layer s.name)
        (duration s -. Option.value (Hashtbl.find_opt covered s.id) ~default:0.0))
    !recorded;
  List.sort (fun (_, a) (_, b) -> Float.compare b a) (List.of_seq (Hashtbl.to_seq by_layer))

let write path =
  let module Json = Cobra_stats.Json in
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun s ->
          output_string oc
            (Json.to_string
               (Json.Obj
                  [
                    ("id", Json.Int s.id);
                    ("parent", Json.Int s.parent);
                    ("name", Json.String s.name);
                    ("rid", Json.String s.rid);
                    ("start_s", Json.Float s.start_s);
                    ("end_s", Json.Float s.end_s);
                  ]));
          output_char oc '\n')
        (List.rev !recorded))
