(* A minimal, stdlib-only property-testing harness.

   Deliberately tiny: a generator paired with a shrinker and a printer, a
   deterministic seeded driver, and greedy shrinking to a local minimum on
   failure. Properties signal failure by raising (Alcotest checks work
   unchanged inside a property); the driver re-raises the exception of the
   *shrunk* counterexample with the seed and case number prepended, so a
   failing run can be replayed exactly with [COBRA_SEED].

   Why not qcheck (which the test stanza already links for other suites)?
   The component-invariant properties here are part of the repo's
   always-on tier-1 gate, and a dependency-free harness keeps them running
   on any toolchain the seed builds on. *)

type 'a t = {
  gen : Random.State.t -> 'a;
  shrink : 'a -> 'a list;  (** smaller candidates, most aggressive first *)
  show : 'a -> string;
}

let make ?(shrink = fun _ -> []) ?(show = fun _ -> "<opaque>") gen =
  { gen; shrink; show }

(* --- primitive generators ------------------------------------------------- *)

let return x = { gen = (fun _ -> x); shrink = (fun _ -> []); show = (fun _ -> "<const>") }

let map ?show f t =
  {
    gen = (fun st -> f (t.gen st));
    (* mapped values shrink through the source only when f is injective
       enough for that to make sense; default to no shrinking *)
    shrink = (fun _ -> []);
    show = (match show with Some s -> s | None -> fun _ -> "<mapped>");
  }

let bool = { gen = (fun st -> Random.State.bool st); shrink = (fun b -> if b then [ false ] else []); show = string_of_bool }

let int_range lo hi =
  if hi < lo then invalid_arg "Prop.int_range";
  {
    gen = (fun st -> lo + Random.State.int st (hi - lo + 1));
    shrink =
      (fun v ->
        (* toward lo: lo itself, then halve the distance *)
        if v = lo then []
        else
          let mid = lo + ((v - lo) / 2) in
          if mid = lo then [ lo ] else [ lo; mid; v - 1 ]);
    show = string_of_int;
  }

let oneof xs =
  match xs with
  | [] -> invalid_arg "Prop.oneof"
  | _ ->
    let arr = Array.of_list xs in
    {
      gen = (fun st -> arr.(Random.State.int st (Array.length arr)));
      shrink = (fun _ -> []);
      show = (fun _ -> "<choice>");
    }

let pair a b =
  {
    gen = (fun st -> (a.gen st, b.gen st));
    shrink =
      (fun (x, y) ->
        List.map (fun x' -> (x', y)) (a.shrink x)
        @ List.map (fun y' -> (x, y')) (b.shrink y));
    show = (fun (x, y) -> Printf.sprintf "(%s, %s)" (a.show x) (b.show y));
  }

(* Lists shrink structurally first (drop halves, then single elements) and
   only then element-wise — the classic ordering that finds short
   counterexamples fast. *)
let list ?(min_len = 0) ~max_len elem =
  let drop_halves xs =
    let n = List.length xs in
    if n <= min_len then []
    else
      let keep_first k = List.filteri (fun i _ -> i < k) xs in
      let keep_last k = List.filteri (fun i _ -> i >= List.length xs - k) xs in
      let half = max min_len (n / 2) in
      if half = n then [] else [ keep_first half; keep_last half ]
  in
  let drop_one xs =
    if List.length xs <= min_len then []
    else List.mapi (fun i _ -> List.filteri (fun j _ -> j <> i) xs) xs
  in
  let shrink_elem xs =
    List.concat
      (List.mapi
         (fun i x ->
           List.map (fun x' -> List.mapi (fun j y -> if i = j then x' else y) xs)
             (elem.shrink x))
         xs)
  in
  {
    gen =
      (fun st ->
        let n = min_len + Random.State.int st (max_len - min_len + 1) in
        List.init n (fun _ -> elem.gen st));
    shrink = (fun xs -> drop_halves xs @ drop_one xs @ shrink_elem xs);
    show =
      (fun xs ->
        Printf.sprintf "[%s] (len %d)"
          (String.concat "; " (List.map elem.show xs))
          (List.length xs));
  }

(* --- driver --------------------------------------------------------------- *)

exception Failed of string

let run_one prop x =
  match prop x with
  | () -> None
  | exception e -> Some (Printexc.to_string e)

(* Greedy shrink to a local minimum: repeatedly take the first candidate
   that still fails, bounded so a pathological shrinker cannot loop. *)
let shrink_to_minimum arb prop x0 msg0 =
  let budget = ref 500 in
  let rec go x msg =
    if !budget <= 0 then (x, msg)
    else begin
      decr budget;
      let rec first = function
        | [] -> None
        | c :: rest -> (
          match run_one prop c with
          | Some m -> Some (c, m)
          | None -> first rest)
      in
      match first (arb.shrink x) with
      | Some (x', msg') -> go x' msg'
      | None -> (x, msg)
    end
  in
  go x0 msg0

(* The seed is the kit-wide COBRA_SEED knob, shared with the conformance
   fuzzer and `cobra conform --seed`, read strictly per call. *)
let check ?(count = 100) ?seed ~name arb prop =
  let seed = match seed with Some s -> s | None -> Cobra_util.Env.(get seed) in
  let st = Random.State.make [| seed |] in
  for case = 1 to count do
    let x = arb.gen st in
    match run_one prop x with
    | None -> ()
    | Some msg ->
      let x_min, msg_min = shrink_to_minimum arb prop x msg in
      raise
        (Failed
           (Printf.sprintf
              "property %S failed (case %d/%d, seed %d)\n\
               counterexample (shrunk): %s\n\
               failure: %s\n\
               replay: COBRA_SEED=%d dune runtest"
              name case count seed (arb.show x_min) msg_min seed))
  done
