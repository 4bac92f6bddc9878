module Bits = Cobra_util.Bits

type config = {
  fetch_width : int;
  ghist_bits : int;
  lhist_bits : int;
  lhist_entries : int;
  history_entries : int;
  path_bits : int;
  predecode_history_correction : bool;
}

let default_config =
  {
    fetch_width = 4;
    ghist_bits = 64;
    lhist_bits = 32;
    lhist_entries = 256;
    history_entries = 32;
    path_bits = 16;
    predecode_history_correction = true;
  }

let config_spec c =
  Printf.sprintf "fw=%d;gh=%d;lh=%d;lhe=%d;hf=%d;path=%d;predecode=%b" c.fetch_width
    c.ghist_bits c.lhist_bits c.lhist_entries c.history_entries c.path_bits
    c.predecode_history_correction

let check_config c =
  let refuse field value rule =
    invalid_arg (Printf.sprintf "Pipeline.config: %s = %d, must be %s" field value rule)
  in
  if c.fetch_width < 1 then refuse "fetch_width" c.fetch_width ">= 1";
  if c.ghist_bits < 1 then refuse "ghist_bits" c.ghist_bits ">= 1";
  if c.lhist_bits < 1 then refuse "lhist_bits" c.lhist_bits ">= 1";
  if not (Cobra_util.Bitops.is_power_of_two c.lhist_entries) then
    refuse "lhist_entries" c.lhist_entries "a power of two";
  if c.history_entries < 1 then refuse "history_entries" c.history_entries ">= 1";
  if c.path_bits < 0 then refuse "path_bits" c.path_bits ">= 0"

type token = int

(** Out-of-band notifications for an attached statistics collector. The
    pipeline stays oblivious to what the observer does with them; with no
    observer attached the only cost is a [None] check per entry point. *)
type observation =
  | Predicted of { token : token; pc : int; max_len : int }
  | Fired of { seq : int; entry : History_file.entry }
  | Resolved of { seq : int; slot : int; actual : Types.resolved; entry : History_file.entry }
  | Mispredicted of {
      seq : int;
      slot : int;
      actual : Types.resolved;
      entry : History_file.entry;
    }
  | Repaired of { seq : int }
  | Committed of { seq : int; packet_len : int; slots : Types.resolved array }
  | Squashed of { packets : int }

type t = {
  cfg : config;
  topo : Topology.t;
  composer : Composer.t;
  comps : Component.t array;
  depth : int;
  mutable ghist : Bits.t;  (* global history through the last fired packet *)
  mutable phist : Bits.t;  (* path history likewise, [max 1 path_bits] wide *)
  lhist : Lhist_provider.t;
  hf : History_file.t;
  mutable pending : History_file.entry list; (* predicted, not yet fired; oldest first *)
  mutable next_token : token;
  mutable observer : (observation -> unit) option;
}

let create cfg topo =
  check_config cfg;
  let composer = Composer.create ~fetch_width:cfg.fetch_width topo in
  let comps = Composer.components composer in
  let meta_bits = Array.map (fun (c : Component.t) -> c.meta_bits) comps in
  {
    cfg;
    topo;
    composer;
    comps;
    depth = Composer.depth composer;
    ghist = Bits.zero cfg.ghist_bits;
    phist = Bits.zero (max 1 cfg.path_bits);
    lhist = Lhist_provider.create ~entries:cfg.lhist_entries ~bits:cfg.lhist_bits;
    hf =
      History_file.create ~capacity:cfg.history_entries ~meta_bits ~fetch_width:cfg.fetch_width
        ~ghist_bits:cfg.ghist_bits ~lhist_bits:cfg.lhist_bits;
    pending = [];
    next_token = 0;
    observer = None;
  }

let set_observer t obs = t.observer <- obs
let observed t = t.observer <> None
let observe t ev = match t.observer with Some f -> f ev | None -> ()

let config t = t.cfg
let topology t = t.topo
let depth t = t.depth
let components t = t.comps

(* Rough NAND2-equivalent cost of the generated redirect/override muxing:
   one opinion multiplexer per slot, per stage, per component boundary. *)
let redirect_logic_gates t =
  t.cfg.fetch_width * t.depth * (Array.length t.comps) * 120

let management_storage t =
  Storage.sum
    [
      History_file.storage t.hf;
      (* the global and path history registers *)
      Storage.make ~flop_bits:(t.cfg.ghist_bits + t.cfg.path_bits) ();
      Lhist_provider.storage t.lhist;
      Storage.make ~logic_gates:(redirect_logic_gates t) ();
    ]

let storage t =
  Storage.add
    (Storage.sum (Array.to_list (Array.map (fun (c : Component.t) -> c.storage) t.comps)))
    (management_storage t)

(* --- frontend side ------------------------------------------------------ *)

(* The speculative value of a history register: its value through the last
   fired packet, shifted by each pending packet's own bits, oldest first. *)
let rec shift_pending reg ~path = function
  | [] -> reg
  | (e : History_file.entry) :: rest ->
    let bits = if path then e.e_path_bits else e.e_dir_bits in
    shift_pending (List.fold_left Bits.shift_in_lsb reg bits) ~path rest

(* Slots past [live] can never be used this packet; a shared zero vector
   saves the provider reads without changing what any component can see. *)
let read_lhists t ~pc ~live =
  let dead = lazy (Cobra_util.Bits.zero t.cfg.lhist_bits) in
  Array.init t.cfg.fetch_width (fun i ->
      if i < live then Lhist_provider.read t.lhist ~pc:(pc + (4 * i))
      else Lazy.force dead)

(* Slots of [pred] within [packet_len] that look like conditional branches
   push a speculative bit into the local history of their own PC. *)
let push_lhists t ~pc ~packet_len (pred : Types.prediction) =
  let pushes = ref [] in
  for i = 0 to Array.length pred - 1 do
    let (op : Types.opinion) = pred.(i) in
    if
      i < packet_len
      && (match op.o_branch with Some true -> true | Some false | None -> false)
      && (match op.o_kind with None | Some Types.Cond -> true | Some _ -> false)
    then begin
      let slot_pc = pc + (4 * i) in
      let prior = Lhist_provider.read t.lhist ~pc:slot_pc in
      Lhist_provider.push t.lhist ~pc:slot_pc
        (match op.o_taken with Some true -> true | Some false | None -> false);
      pushes := (slot_pc, prior) :: !pushes
    end
  done;
  List.rev !pushes

let path_bits_per_branch = 3

(* Path bits contributed by a packet: folded low target bits of its first
   (acted) taken branch, oldest first. *)
(* Expand a folded target hash into its bit list, lowest bit first. *)
let rec path_bits_build folded k acc =
  if k < 0 then acc else path_bits_build folded (k - 1) (((folded lsr k) land 1 = 1) :: acc)

let path_bits_of_target target =
  let folded =
    Cobra_util.Hashing.fold_int (Cobra_util.Hashing.pc_bits target) ~width:62
      ~bits:path_bits_per_branch
  in
  path_bits_build folded (path_bits_per_branch - 1) []

let rec path_bits_find_slot slots len i =
  if i >= len then []
  else
    let (r : Types.resolved) = slots.(i) in
    if r.r_is_branch && r.r_taken then path_bits_of_target r.r_target
    else path_bits_find_slot slots len (i + 1)

let path_bits_of_slots t slots ~packet_len =
  if t.cfg.path_bits = 0 then []
  else path_bits_find_slot slots (min packet_len (Array.length slots)) 0

(* Path bits implied by a stage composite at predict time: the first slot
   predicted as a taken branch, read straight off the opinions (what
   [path_bits_of_slots] would see through the predicted resolved view,
   without materialising that view). *)
let rec path_bits_find_op (pred : Types.prediction) len i =
  if i >= len then []
  else
    let op = pred.(i) in
    if
      (match op.Types.o_branch with Some true -> true | Some false | None -> false)
      && (match op.Types.o_taken with Some true -> true | Some false | None -> false)
    then path_bits_of_target (match op.Types.o_target with Some tgt -> tgt | None -> 0)
    else path_bits_find_op pred len (i + 1)

let path_bits_of_prediction t (pred : Types.prediction) ~packet_len =
  if t.cfg.path_bits = 0 then []
  else path_bits_find_op pred (min packet_len (Array.length pred)) 0

let unwind_lhist_pushes t pushes =
  List.iter (fun (pc, prior) -> Lhist_provider.restore t.lhist ~pc prior) (List.rev pushes)

let predict t ~pc ~max_len =
  if max_len < 1 || max_len > t.cfg.fetch_width then
    invalid_arg "Pipeline.predict: max_len out of range";
  let ctx =
    Context.make ~pc ~fetch_width:t.cfg.fetch_width ~live_slots:max_len
      ~ghist:(shift_pending t.ghist ~path:false t.pending)
      ~lhists:(read_lhists t ~pc ~live:max_len)
      ~phist:
        (if t.cfg.path_bits = 0 then Bits.zero 0
         else shift_pending t.phist ~path:true t.pending)
      ()
  in
  (* The composer's buffers are overwritten by the next predict: the packet
     keeps copies of its rows and metadata, and of the raw opinions only
     while an observer is attached. *)
  let stages = Array.map Array.copy (Composer.eval t.composer ctx) in
  let metas = Array.map Bits.copy (Composer.metas t.composer) in
  let raw =
    if observed t then Some (Array.map Array.copy (Composer.opinions t.composer)) else None
  in
  let stage1 = stages.(0) in
  let packet_len = (Types.next_fetch stage1 ~pc ~max_len).Types.packet_len in
  let token = t.next_token in
  t.next_token <- token + 1;
  let e : History_file.entry =
    {
      e_token = token;
      e_ctx = ctx;
      e_metas = metas;
      e_stages = stages;
      e_raw = raw;
      e_slots = [||];
      e_packet_len = 0;
      e_dir_bits = Types.direction_bits stage1 ~packet_len;
      e_path_bits = path_bits_of_prediction t stage1 ~packet_len;
      e_lhist_pushes = push_lhists t ~pc ~packet_len stage1;
    }
  in
  t.pending <- t.pending @ [ e ];
  observe t (Predicted { token; pc; max_len });
  token

(* Threaded-argument recursion: [List.find_opt] with a capturing predicate
   would allocate a closure per lookup, and the host calls this several
   times per packet per cycle. *)
let rec find_pending_in (pending : History_file.entry list) token =
  match pending with
  | [] -> invalid_arg (Printf.sprintf "Pipeline: token %d is not pending" token)
  | e :: rest -> if e.e_token = token then e else find_pending_in rest token

let find_pending t token = find_pending_in t.pending token

let stages t token = (find_pending t token).e_stages
let context t token = (find_pending t token).e_ctx
let applied_dir_bits t token = (find_pending t token).e_dir_bits
let revise_dir_bits t token bits = (find_pending t token).e_dir_bits <- bits
let pending_tokens t = List.map (fun (e : History_file.entry) -> e.e_token) t.pending

let squash_from t token =
  let rec split keep = function
    | [] -> invalid_arg (Printf.sprintf "Pipeline: token %d is not pending" token)
    | (e : History_file.entry) :: rest when e.e_token <> token -> split (e :: keep) rest
    | squashed -> (List.rev keep, squashed)
  in
  let keep, squashed = split [] t.pending in
  (* Unwind speculative local-history pushes youngest-first. *)
  List.iter
    (fun (e : History_file.entry) -> unwind_lhist_pushes t e.e_lhist_pushes)
    (List.rev squashed);
  t.pending <- keep;
  observe t (Squashed { packets = List.length squashed })

let squash_all_pending t =
  match t.pending with [] -> () | e :: _ -> squash_from t e.e_token

let can_fire t = not (History_file.is_full t.hf)

let event_of_entry (entry : History_file.entry) ~id ~slots ~culprit : Component.event =
  { ctx = entry.e_ctx; meta = entry.e_metas.(id); slots; culprit }

let predicted_slots (entry : History_file.entry) =
  Array.map (fun (s : History_file.slot_state) -> s.predicted) entry.e_slots

let effective_slots (entry : History_file.entry) =
  let n = Array.length entry.e_slots in
  let out = Array.make n Types.no_branch in
  for i = 0 to entry.e_packet_len - 1 do
    if i < n then
      let (s : History_file.slot_state) = entry.e_slots.(i) in
      out.(i) <- (match s.actual with Some r -> r | None -> s.predicted)
  done;
  out

(* Push local-history bits for the conditional branches of a slot vector,
   returning the (pc, prior) undo list. *)
let push_lhists_of_slots t ctx slots ~packet_len =
  let pushes = ref [] in
  let stop = ref false in
  for i = 0 to Array.length slots - 1 do
    let (s : Types.resolved) = slots.(i) in
    if
      (not !stop) && i < packet_len && s.r_is_branch
      && match s.r_kind with Types.Cond -> true | _ -> false
    then begin
      let slot_pc = Context.slot_pc ctx i in
      let prior = Lhist_provider.read t.lhist ~pc:slot_pc in
      Lhist_provider.push t.lhist ~pc:slot_pc s.r_taken;
      pushes := (slot_pc, prior) :: !pushes
    end;
    if i < packet_len && s.r_is_branch && s.r_taken then stop := true
  done;
  List.rev !pushes

(* Direction bits implied by per-slot outcomes: one bit per conditional
   branch, stopping after the first taken slot. *)
let rec dir_bits_of_slots_loop slots len i acc =
  if i >= len then List.rev acc
  else
    let (s : Types.resolved) = slots.(i) in
    let acc =
      if s.r_is_branch && (match s.r_kind with Types.Cond -> true | _ -> false) then
        s.r_taken :: acc
      else acc
    in
    if s.r_is_branch && s.r_taken then List.rev acc
    else dir_bits_of_slots_loop slots len (i + 1) acc

let dir_bits_of_slots slots ~packet_len =
  dir_bits_of_slots_loop slots (min packet_len (Array.length slots)) 0 []

let fire t token ~slots ~packet_len =
  let e =
    match t.pending with
    | e :: _ when e.History_file.e_token = token -> e
    | _ -> invalid_arg "Pipeline.fire: token must be the oldest pending packet"
  in
  if Array.length slots <> t.cfg.fetch_width then
    invalid_arg "Pipeline.fire: slots array must have fetch_width entries";
  if packet_len < 1 || packet_len > t.cfg.fetch_width then
    invalid_arg "Pipeline.fire: packet_len out of range";
  (* Predecode correction: the host now knows the true branch positions, so
     the packet's speculative history bits — global, path and local — are
     recomputed from them, with directions from the acted prediction
     (unless the configuration models a design without this correction). *)
  if t.cfg.predecode_history_correction then begin
    e.e_dir_bits <- dir_bits_of_slots slots ~packet_len;
    e.e_path_bits <- path_bits_of_slots t slots ~packet_len;
    unwind_lhist_pushes t e.e_lhist_pushes;
    e.e_lhist_pushes <- push_lhists_of_slots t e.e_ctx slots ~packet_len
  end;
  t.ghist <- List.fold_left Bits.shift_in_lsb t.ghist e.e_dir_bits;
  t.phist <- List.fold_left Bits.shift_in_lsb t.phist e.e_path_bits;
  t.pending <- List.tl t.pending;
  e.e_slots <- Array.map (fun r -> { History_file.predicted = r; actual = None }) slots;
  e.e_packet_len <- packet_len;
  let seq = History_file.enqueue t.hf e in
  let pslots = predicted_slots e in
  Array.iteri
    (fun id (c : Component.t) -> c.fire (event_of_entry e ~id ~slots:pslots ~culprit:None))
    t.comps;
  observe t (Fired { seq; entry = e });
  seq

(* --- backend side ------------------------------------------------------- *)

let check_slot t ~slot =
  if slot < 0 || slot >= t.cfg.fetch_width then invalid_arg "Pipeline: slot out of range"

let resolve t ~seq ~slot resolved =
  check_slot t ~slot;
  let entry = History_file.get t.hf seq in
  entry.e_slots.(slot).actual <- Some resolved;
  observe t (Resolved { seq; slot; actual = resolved; entry })

(* Re-apply corrected local-history state for the mispredicted entry: undo
   its speculative pushes, then push the (now partly resolved) directions of
   the surviving slots. *)
let repush_lhists t (entry : History_file.entry) =
  unwind_lhist_pushes t entry.e_lhist_pushes;
  entry.e_lhist_pushes <-
    push_lhists_of_slots t entry.e_ctx (effective_slots entry)
      ~packet_len:entry.e_packet_len

let mispredict t ~seq ~slot resolved =
  check_slot t ~slot;
  let entry = History_file.get t.hf seq in
  entry.e_slots.(slot).actual <- Some resolved;
  (* Forwards-walk first: repair events for the younger in-flight packets
     being squashed, oldest first (paper Section IV-B2). The culprit's fast
     mispredict update runs after the walk so the corrected state it writes
     is final — younger packets' restored speculative state must not
     clobber it. *)
  let younger = ref [] in
  History_file.iter_from t.hf (seq + 1) (fun s e -> younger := (s, e) :: !younger);
  let younger_oldest_first = List.rev !younger in
  List.iter
    (fun ((yseq, e) : int * History_file.entry) ->
      let pslots = predicted_slots e in
      Array.iteri
        (fun id (c : Component.t) ->
          c.repair (event_of_entry e ~id ~slots:pslots ~culprit:None))
        t.comps;
      observe t (Repaired { seq = yseq }))
    younger_oldest_first;
  (* Fast update for the offending packet. *)
  let resolved_view = effective_slots entry in
  Array.iteri
    (fun id (c : Component.t) ->
      c.mispredict (event_of_entry entry ~id ~slots:resolved_view ~culprit:(Some slot)))
    t.comps;
  observe t (Mispredicted { seq; slot; actual = resolved; entry });
  squash_all_pending t;
  List.iter
    (fun ((_, e) : int * History_file.entry) -> unwind_lhist_pushes t e.e_lhist_pushes)
    !younger;
  History_file.drop_newer_than t.hf seq;
  (* The packet is cut at the culprit: younger slots were squashed (either
     the branch was taken, or the not-taken refetch starts a new packet). *)
  entry.e_packet_len <- slot + 1;
  entry.e_dir_bits <- dir_bits_of_slots (effective_slots entry) ~packet_len:entry.e_packet_len;
  entry.e_path_bits <-
    path_bits_of_slots t (effective_slots entry) ~packet_len:entry.e_packet_len;
  repush_lhists t entry;
  (* Restore the global and path history registers from the entry's
     snapshots plus its corrected bits. *)
  t.ghist <- List.fold_left Bits.shift_in_lsb entry.e_ctx.Context.ghist entry.e_dir_bits;
  if t.cfg.path_bits > 0 then
    t.phist <- List.fold_left Bits.shift_in_lsb entry.e_ctx.Context.phist entry.e_path_bits

let commit t =
  match History_file.dequeue t.hf with
  | None -> invalid_arg "Pipeline.commit: history file empty"
  | Some (seq, entry) ->
    let slots = effective_slots entry in
    Array.iteri
      (fun id (c : Component.t) ->
        c.update (event_of_entry entry ~id ~slots ~culprit:None))
      t.comps;
    observe t (Committed { seq; packet_len = entry.e_packet_len; slots })

let inflight t = History_file.length t.hf
let oldest_seq t = Option.map fst (History_file.oldest t.hf)

let ghist_value t = shift_pending t.ghist ~path:false t.pending
let phist_value t = shift_pending t.phist ~path:true t.pending
let lhist_value t ~pc = Lhist_provider.read t.lhist ~pc
let entry t seq = History_file.get t.hf seq

(* ------------------------------------------------------------------ *)
(* Whole-design snapshot: one flat slab covering the management state
   plus every component's state slab. Both engines write and read it
   through [write_slab]/[read_slab], so slabs interchange between them.

   Layout (cells):
     [0]                          next_token
     [1 .. ]                      ghist limbs        (Bits.limbs_for ghist_bits)
     then                         path  limbs        (Bits.limbs_for (max 1 path_bits))
     then, per lhist entry        its history limbs  (Bits.limbs_for lhist_bits)
     then, per component in order its state slab     (Component.state_cells)

   The pipeline is only snapshotted quiesced (no pending packets, empty
   history file): that is the natural state between replay windows, and
   it means no pending packet shifts the global and path registers, so
   their limbs capture everything. *)

module Slab = Cobra_util.Slab

let quiesced t = t.pending = [] && History_file.length t.hf = 0

let slab_cells cfg comps =
  Array.fold_left
    (fun acc c -> acc + Component.state_cells c)
    (1 + Bits.limbs_for cfg.ghist_bits
    + Bits.limbs_for (max 1 cfg.path_bits)
    + (cfg.lhist_entries * Bits.limbs_for cfg.lhist_bits))
    comps

let snapshot_cells t = slab_cells t.cfg t.comps

let write_slab cfg comps ~next_token ~ghist ~path lhist =
  let slab = Slab.create (slab_cells cfg comps) in
  Slab.set slab 0 next_token;
  let pos = ref 1 in
  let put v =
    for i = 0 to Bits.limb_count v - 1 do
      Slab.set slab (!pos + i) (Bits.get_limb v i)
    done;
    pos := !pos + Bits.limb_count v
  in
  put ghist;
  put path;
  for i = 0 to Lhist_provider.entries lhist - 1 do
    put (Lhist_provider.nth lhist i)
  done;
  Array.iter
    (fun c ->
      let n = Component.state_cells c in
      if n > 0 then begin
        Slab.blit ~src:c.Component.state ~dst:(Slab.sub slab !pos n);
        pos := !pos + n
      end)
    comps;
  slab

let read_slab ~engine cfg comps slab ~ghist ~path lhist =
  let expect = slab_cells cfg comps in
  if Slab.length slab <> expect then
    invalid_arg
      (Printf.sprintf "%s.restore: snapshot has %d cells, %s needs %d"
         (String.capitalize_ascii engine) (Slab.length slab) engine expect);
  let pos = ref 1 in
  let get v =
    for i = 0 to Bits.limb_count v - 1 do
      Bits.set_limb v i (Slab.get slab (!pos + i))
    done;
    pos := !pos + Bits.limb_count v
  in
  get ghist;
  get path;
  for i = 0 to Lhist_provider.entries lhist - 1 do
    get (Lhist_provider.nth lhist i)
  done;
  Array.iter
    (fun c ->
      let n = Component.state_cells c in
      if n > 0 then begin
        Component.restore c (Slab.sub slab !pos n);
        pos := !pos + n
      end)
    comps;
  Slab.get slab 0

let snapshot t =
  if not (quiesced t) then
    invalid_arg
      (Printf.sprintf
         "Pipeline.snapshot: pipeline not quiesced (%d pending packets, %d in-flight entries)"
         (List.length t.pending) (History_file.length t.hf));
  write_slab t.cfg t.comps ~next_token:t.next_token ~ghist:t.ghist ~path:t.phist t.lhist

let restore t slab =
  if History_file.length t.hf <> 0 then
    invalid_arg "Pipeline.restore: history file not empty";
  (* Into fresh vectors: history values handed out earlier (contexts,
     [lhist_value]) keep theirs. *)
  let ghist = Bits.zero (Bits.width t.ghist) in
  let path = Bits.zero (Bits.width t.phist) in
  let lhist =
    Lhist_provider.create ~entries:(Lhist_provider.entries t.lhist)
      ~bits:(Lhist_provider.bits t.lhist)
  in
  t.next_token <- read_slab ~engine:"pipeline" t.cfg t.comps slab ~ghist ~path lhist;
  t.pending <- [];
  t.ghist <- ghist;
  t.phist <- path;
  for i = 0 to Lhist_provider.entries lhist - 1 do
    Lhist_provider.set_nth t.lhist i (Lhist_provider.nth lhist i)
  done
