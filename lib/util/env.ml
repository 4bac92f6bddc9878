(* The environment's one surface: every COBRA_* knob is declared here, with
   its parser, default and meaning, and read only through [get]. A
   malformed value is a configuration error the user must hear about:
   sweeping a parameter via a typo'd variable and silently measuring the
   default instead produces confidently wrong results, so parsing never
   falls back — it raises, naming the variable and the offending value.
   A misspelt name is the same mistake, which [check] catches. *)

type knob = { name : string; default : string; doc : string }

type 'a t = {
  knob : knob;
  parse : string -> 'a;  (* a set, non-blank value *)
  fallback : unit -> 'a;
}

let set_value name =
  match Sys.getenv_opt name with
  | Some raw when String.trim raw <> "" -> Some raw
  | Some _ | None -> None (* FOO= means unset *)

let get k = match set_value k.knob.name with Some raw -> k.parse raw | None -> k.fallback ()

(* --- parsers ----------------------------------------------------------------- *)

let int ?min name raw =
  match int_of_string_opt (String.trim raw) with
  | None -> failwith (Printf.sprintf "%s: expected an integer, got %S" name raw)
  | Some n -> (
    match min with
    | Some lo when n < lo ->
      failwith (Printf.sprintf "%s = %d is below the minimum %d" name n lo)
    | _ -> n)

let flag name raw =
  match String.lowercase_ascii (String.trim raw) with
  | "1" | "true" | "yes" | "on" -> true
  | "0" | "false" | "no" | "off" -> false
  | _ ->
    failwith
      (Printf.sprintf "%s: expected 1/true/yes/on or 0/false/no/off, got %S" name raw)

let declare name ~default ~doc parse fallback =
  { knob = { name; default; doc }; parse = parse name; fallback }

let integer ?min name ~default ~doc =
  declare name ~default:(string_of_int default) ~doc (int ?min) (fun () -> default)

let on_off name ~default ~doc =
  declare name ~default:(if default then "on" else "off") ~doc flag (fun () -> default)

let path name ~default ~doc = declare name ~default ~doc (fun _ raw -> raw) (fun () -> default)

(* --- the knobs ------------------------------------------------------------------ *)

let cache =
  on_off "COBRA_CACHE" ~default:true
    ~doc:"0/false/no/off disable the on-disk result cache; 1/true/yes/on keep it"

let cache_dir = path "COBRA_CACHE_DIR" ~default:"_cobra_cache" ~doc:"result cache location"

let events =
  declare "COBRA_EVENTS" ~default:"unset"
    ~doc:
      "mirror job events as JSON lines to this file (one that cannot be opened stops the \
       run)"
    (fun _ raw -> Some raw)
    (fun () -> None)

let insns =
  integer ~min:1 "COBRA_INSNS" ~default:100_000
    ~doc:"instructions per experiment run (bench harness, sweeps)"

let jobs =
  declare "COBRA_JOBS" ~default:"recommended domain count"
    ~doc:"simulation workers; 1 reproduces the serial harness bit-for-bit" (int ~min:1)
    Domain.recommended_domain_count

let progress =
  declare "COBRA_PROGRESS" ~default:"tty-detect"
    ~doc:"1/true/yes/on forces the live stderr status line on, 0/false/no/off off" flag
    (fun () -> try Unix.isatty Unix.stderr with _ -> false)

let seed =
  integer "COBRA_SEED" ~default:0x0b5a
    ~doc:"seed of cobra conform, cobra probe and the seeded tests (--seed wins)"

let stats =
  on_off "COBRA_STATS" ~default:false
    ~doc:
      "1/true/yes/on has every run export a statistics report (0/false/no/off to keep it \
       off)"

let stats_dir =
  path "COBRA_STATS_DIR" ~default:"_cobra_stats" ~doc:"statistics report directory"

let warm_cache =
  integer ~min:1 "COBRA_WARM_CACHE" ~default:64
    ~doc:"warm checkpoints a cobra serve daemon keeps (read when the daemon starts)"

(* --- the registry ---------------------------------------------------------------- *)

(* Each knob with a check of its value: parse it when set. *)
let registry =
  let entry k =
    (k.knob, fun () -> Option.iter (fun raw -> ignore (k.parse raw)) (set_value k.knob.name))
  in
  [
    entry cache; entry cache_dir; entry events; entry insns; entry jobs; entry progress;
    entry seed; entry stats; entry stats_dir; entry warm_cache;
  ]

let knobs = List.map fst registry
let value_set k = set_value k.name

let check () =
  let unknown =
    Array.to_list (Unix.environment ())
    |> List.filter_map (fun binding ->
           match String.index_opt binding '=' with
           | None -> None
           | Some i ->
             let name = String.sub binding 0 i in
             if
               String.starts_with ~prefix:"COBRA_" name
               && (not (List.exists (fun k -> String.equal k.name name) knobs))
               && Option.is_some (set_value name)
             then Some name
             else None)
    |> List.sort_uniq String.compare
  in
  (match unknown with
  | [] -> ()
  | names ->
    failwith
      (Printf.sprintf "%s: unknown knob%s (the knobs are %s)" (String.concat ", " names)
         (if List.length names = 1 then "" else "s")
         (String.concat ", " (List.map (fun k -> k.name) knobs))));
  List.iter (fun (_, check_value) -> check_value ()) registry

let with_set pairs f =
  let old =
    List.map (fun (name, _) -> (name, Option.value (Sys.getenv_opt name) ~default:"")) pairs
  in
  List.iter (fun (name, v) -> Unix.putenv name v) pairs;
  Fun.protect f ~finally:(fun () -> List.iter (fun (name, v) -> Unix.putenv name v) old)
