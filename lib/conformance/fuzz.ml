module Bits = Cobra_util.Bits
module Rng = Cobra_util.Rng
module Btrace = Cobra_trace_replay.Btrace
open Cobra

type shape =
  | Loops
  | Correlated
  | Aliasing
  | Phases
  | Storms
  | Mixed
  | Ladder
  | Alias_stress
  | Loop_scan

let all_shapes =
  [ Loops; Correlated; Aliasing; Phases; Storms; Mixed; Ladder; Alias_stress; Loop_scan ]

let shape_name = function
  | Loops -> "loops"
  | Correlated -> "correlated"
  | Aliasing -> "aliasing"
  | Phases -> "phases"
  | Storms -> "storms"
  | Mixed -> "mixed"
  | Ladder -> "ladder"
  | Alias_stress -> "alias-stress"
  | Loop_scan -> "loop-scan"

let shape_names = List.map shape_name all_shapes

let shape_of_name n =
  let n = String.lowercase_ascii (String.trim n) in
  List.find_opt (fun s -> String.equal (shape_name s) n) all_shapes

let shape_of_name_exn n =
  match shape_of_name n with
  | Some s -> s
  | None ->
    failwith
      (Printf.sprintf "unknown fuzz shape %S (valid shapes: %s)" n
         (String.concat ", " shape_names))

type scenario = { seed : int; shape : shape; length : int }

type path = Commit | Wrong_path | Storm of int

type packet = {
  pk_ctx : Context.t;
  pk_pred_in : Types.prediction list;
  pk_slots : Types.resolved array;
  pk_path : path;
}

(* History widths used by every generated context; wide enough for the
   longest history any catalogued component folds. *)
let ghist_bits = 64
let lhist_bits = 16
let phist_bits = 16

let shape_tag = function
  | Loops -> 1
  | Correlated -> 2
  | Aliasing -> 3
  | Phases -> 4
  | Storms -> 5
  | Mixed -> 6
  | Ladder -> 7
  | Alias_stress -> 8
  | Loop_scan -> 9

(* --- direction engine -------------------------------------------------------- *)

type engine = {
  rng : Rng.t;
  iters : (int, int) Hashtbl.t;  (** per-PC loop iteration counters *)
  mutable recent : bool array;  (** ring of correlated-source outcomes *)
  mutable recent_pos : int;
  mutable tick : int;
}

let engine_create seed shape =
  {
    rng = Rng.create ~seed:(seed lxor (shape_tag shape * 0x9e3779b9));
    iters = Hashtbl.create 64;
    recent = Array.make 8 true;
    recent_pos = 0;
    tick = 0;
  }

(* Trip counts deliberately small and mixed so exits are frequent. *)
let trip_counts = [| 3; 5; 7; 12 |]

(* Loop_scan sweeps a much wider trip ladder, reaching past typical folded
   history lengths so a predictor's loop-bound limit is actually crossed. *)
let scan_trip_counts = [| 2; 4; 9; 17; 33; 65; 129; 257 |]

(* Ladder directions follow a de Bruijn B(2,6) sequence per PC: every
   6-window unique, so anything with >= 6 usable history bits can learn it
   and anything shorter is pinned near chance. *)
let ladder_order = 6
let ladder_seq = lazy (Cobra_util.Debruijn.sequence ~order:ladder_order)

let rec direction eng shape pc =
  match shape with
  | Loops ->
    let trips = trip_counts.((pc lsr 4) land 3) in
    let iter = match Hashtbl.find_opt eng.iters pc with Some i -> i | None -> 0 in
    if iter + 1 >= trips then begin
      Hashtbl.replace eng.iters pc 0;
      false (* loop exit *)
    end
    else begin
      Hashtbl.replace eng.iters pc (iter + 1);
      true
    end
  | Correlated ->
    if pc land 0x10 = 0 then begin
      (* a source branch: random outcome, remembered *)
      let out = Rng.bool eng.rng in
      eng.recent.(eng.recent_pos) <- out;
      eng.recent_pos <- (eng.recent_pos + 1) mod Array.length eng.recent;
      out
    end
    else
      (* a follower: repeats the source outcome from two branches ago *)
      eng.recent.((eng.recent_pos + Array.length eng.recent - 2) mod Array.length eng.recent)
  | Aliasing ->
    (* conflicting per-PC biases over a dense PC set *)
    let biased_taken = (pc lsr 2) land 1 = 0 in
    if Rng.chance eng.rng 0.9 then biased_taken else not biased_taken
  | Phases ->
    let base = eng.tick / 128 mod 2 = 0 in
    if Rng.chance eng.rng 0.85 then base else not base
  | Storms -> Rng.bool eng.rng
  | Mixed ->
    let sub = [| Loops; Correlated; Aliasing; Phases; Storms |] in
    direction eng sub.(eng.tick / 64 mod Array.length sub) pc
  | Ladder ->
    let seq = Lazy.force ladder_seq in
    let pos = match Hashtbl.find_opt eng.iters pc with Some i -> i | None -> 0 in
    Hashtbl.replace eng.iters pc ((pos + 1) mod Array.length seq);
    seq.(pos)
  | Alias_stress ->
    (* fully deterministic conflicting per-PC biases: adjacent sites want
       opposite directions, so any index collision is destructive *)
    (pc lsr 4) land 1 = 0
  | Loop_scan ->
    let trips = scan_trip_counts.((pc lsr 4) land 7) in
    let iter = match Hashtbl.find_opt eng.iters pc with Some i -> i | None -> 0 in
    if iter + 1 >= trips then begin
      Hashtbl.replace eng.iters pc 0;
      false
    end
    else begin
      Hashtbl.replace eng.iters pc (iter + 1);
      true
    end

let pick_pc eng shape =
  let pool_size =
    match shape with
    | Aliasing -> 24
    | Loops -> 6
    | Ladder -> 4
    | Alias_stress -> 32
    | Loop_scan -> 8
    | _ -> 12
  in
  let base = 0x4000 in
  base + (16 * Rng.int eng.rng pool_size)

let pick_kind eng =
  match Rng.int eng.rng 20 with
  | 0 -> Types.Jump
  | 1 -> Types.Call
  | 2 -> Types.Ret
  | 3 | 4 -> Types.Ind
  | _ -> Types.Cond

let pick_target eng pc =
  (* mostly short backward/forward hops, occasionally far *)
  let delta = (Rng.int eng.rng 64 - 32) * 4 in
  let t = if Rng.chance eng.rng 0.1 then 0x9000 + (4 * Rng.int eng.rng 256) else pc + delta in
  max 0 t

(* --- component-level scripts -------------------------------------------------- *)

let random_opinion eng =
  if Rng.chance eng.rng 0.45 then Types.empty_opinion
  else begin
    let taken = Rng.bool eng.rng in
    if Rng.chance eng.rng 0.3 then
      (* BTB-shaped opinion: existence, kind and target *)
      let kind = pick_kind eng in
      {
        Types.o_branch = Some true;
        o_kind = Some kind;
        o_taken = (if Types.is_unconditional kind then Some true else Some taken);
        o_target = Some (0x4000 + (4 * Rng.int eng.rng 512));
      }
    else { Types.empty_opinion with o_taken = Some taken }
  end

let resolved_slot eng shape pc slot =
  if Rng.chance eng.rng 0.25 then Types.no_branch
  else begin
    let kind = pick_kind eng in
    let slot_pc = pc + (4 * slot) in
    let taken =
      match kind with Types.Cond -> direction eng shape slot_pc | _ -> true
    in
    Types.resolved_branch ~kind ~taken
      ~target:(if taken then pick_target eng slot_pc else 0)
  end

let advance_histories ghist lhists phist (slots : Types.resolved array) =
  let g = ref ghist and p = ref phist in
  let lh = Array.copy lhists in
  Array.iteri
    (fun slot (r : Types.resolved) ->
      if Types.cond_branch r then begin
        g := Bits.shift_in_lsb !g r.r_taken;
        lh.(slot) <- Bits.shift_in_lsb lh.(slot) r.r_taken
      end;
      if r.r_is_branch && r.r_taken then
        p := Bits.shift_in_lsb !p ((r.r_target lsr 2) land 1 = 1))
    slots;
  (!g, lh, !p)

let pick_path eng shape (slots : Types.resolved array) =
  let wrongp, stormp =
    match shape with Storms -> (0.25, 0.3) | _ -> (0.1, 0.12)
  in
  if Rng.chance eng.rng wrongp then Wrong_path
  else if Rng.chance eng.rng stormp then begin
    (* prefer a conditional culprit so direction machinery is exercised *)
    let candidates =
      List.filter
        (fun s -> slots.(s).Types.r_is_branch)
        (List.init (Array.length slots) Fun.id)
    in
    match candidates with
    | [] -> Commit
    | cs -> Storm (List.nth cs (Rng.int eng.rng (List.length cs)))
  end
  else Commit

let packets sc ~arity ~fetch_width =
  let eng = engine_create sc.seed sc.shape in
  let ghist = ref (Bits.zero ghist_bits) in
  let lhists = ref (Array.init fetch_width (fun _ -> Bits.zero lhist_bits)) in
  let phist = ref (Bits.zero phist_bits) in
  List.init sc.length (fun _ ->
      eng.tick <- eng.tick + 1;
      let pc = pick_pc eng sc.shape in
      let slots = Array.init fetch_width (fun slot -> resolved_slot eng sc.shape pc slot) in
      let pred_in =
        List.init arity (fun _ ->
            Array.init fetch_width (fun _ -> random_opinion eng))
      in
      let ctx =
        Context.make ~pc ~fetch_width ~ghist:!ghist ~lhists:!lhists ~phist:!phist ()
      in
      let path = pick_path eng sc.shape slots in
      (match path with
      | Wrong_path -> ()
      | Commit | Storm _ ->
        let g, lh, p = advance_histories !ghist !lhists !phist slots in
        ghist := g;
        lhists := lh;
        phist := p);
      { pk_ctx = ctx; pk_pred_in = pred_in; pk_slots = slots; pk_path = path })

(* --- pipeline-level branch streams --------------------------------------------- *)

let branches sc =
  let eng = engine_create sc.seed sc.shape in
  List.init sc.length (fun _ ->
      eng.tick <- eng.tick + 1;
      let pc = pick_pc eng sc.shape in
      let kind = if Rng.chance eng.rng 0.85 then Types.Cond else pick_kind eng in
      let taken =
        match kind with Types.Cond -> direction eng sc.shape pc | _ -> true
      in
      {
        Btrace.b_pc = pc;
        b_kind = kind;
        b_taken = taken;
        b_target = (if taken then pick_target eng pc else 0);
        b_gap = 0;
      })
