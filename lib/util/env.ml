(* Integer and boolean environment knobs. A malformed value is a
   configuration error the user must hear about: sweeping a parameter via a
   typo'd variable and silently measuring the default instead produces
   confidently wrong results, so parsing never falls back — it raises,
   naming the variable and the offending value. *)

let int_var ?min name ~default =
  match Sys.getenv_opt name with
  | None -> default
  | Some raw when String.trim raw = "" -> default (* FOO= means unset *)
  | Some raw -> (
    let v = String.trim raw in
    match int_of_string_opt v with
    | None ->
      failwith (Printf.sprintf "%s: expected an integer, got %S" name raw)
    | Some n -> (
      match min with
      | Some lo when n < lo ->
        failwith (Printf.sprintf "%s = %d is below the minimum %d" name n lo)
      | _ -> n))

let bool_var name ~default =
  match Sys.getenv_opt name with
  | None -> default
  | Some raw -> (
    match String.lowercase_ascii (String.trim raw) with
    | "" -> default
    | "1" | "true" | "yes" | "on" -> true
    | "0" | "false" | "no" | "off" -> false
    | _ ->
      failwith
        (Printf.sprintf "%s: expected 1/true/yes/on or 0/false/no/off, got %S" name raw))
