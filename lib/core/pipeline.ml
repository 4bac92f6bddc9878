module Bits = Cobra_util.Bits

type config = {
  fetch_width : int;
  ghist_bits : int;
  lhist_bits : int;
  lhist_entries : int;
}

let history_entries = 32
let path_bits = 16

let default_config = { fetch_width = 4; ghist_bits = 64; lhist_bits = 32; lhist_entries = 256 }

let config_spec c =
  Printf.sprintf "fw=%d;gh=%d;lh=%d;lhe=%d" c.fetch_width c.ghist_bits c.lhist_bits
    c.lhist_entries

let check_config c =
  let refuse field value rule =
    invalid_arg (Printf.sprintf "Pipeline.config: %s = %d, must be %s" field value rule)
  in
  if c.fetch_width < 1 then refuse "fetch_width" c.fetch_width ">= 1";
  if c.ghist_bits < 1 then refuse "ghist_bits" c.ghist_bits ">= 1";
  if c.lhist_bits < 1 then refuse "lhist_bits" c.lhist_bits ">= 1";
  if not (Cobra_util.Bitops.is_power_of_two c.lhist_entries) then
    refuse "lhist_entries" c.lhist_entries "a power of two"

type token = int

(** Out-of-band notifications for an attached statistics collector. The
    pipeline stays oblivious to what the observer does with them; with no
    observer attached none is built, and the only cost is a [None] check
    per entry point. *)
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
  ghist : Bits.t;  (* global history through the last fired packet, shifted in place *)
  phist : Bits.t;  (* path history likewise *)
  lhist : Lhist_provider.t;
  lhist_zero : Bits.t;  (* what a dead slot's local history reads *)
  hf : History_file.t;
  mutable pending : History_file.entry array;
      (* predicted, not yet fired: [pending.(0 .. n_pending - 1)], oldest first *)
  mutable n_pending : int;
  mutable spare : History_file.entry array;  (* the pool: records of retired packets *)
  mutable n_spare : int;
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
    phist = Bits.zero path_bits;
    lhist = Lhist_provider.create ~entries:cfg.lhist_entries ~bits:cfg.lhist_bits;
    lhist_zero = Bits.zero cfg.lhist_bits;
    hf =
      History_file.create ~capacity:history_entries ~meta_bits ~fetch_width:cfg.fetch_width
        ~ghist_bits:cfg.ghist_bits ~lhist_bits:cfg.lhist_bits;
    pending = [||];
    n_pending = 0;
    spare = [||];
    n_spare = 0;
    next_token = 0;
    observer = None;
  }

let set_observer t obs = t.observer <- obs
let observed t = match t.observer with Some _ -> true | None -> false

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
      Storage.make ~flop_bits:(t.cfg.ghist_bits + path_bits) ();
      Lhist_provider.storage t.lhist;
      Storage.make ~logic_gates:(redirect_logic_gates t) ();
    ]

let storage t =
  Storage.add
    (Storage.sum (Array.to_list (Array.map (fun (c : Component.t) -> c.storage) t.comps)))
    (management_storage t)

(* --- the record pool ------------------------------------------------------ *)

(* A packet record with every buffer its packet will need, built once: its
   own context and history buffers, metadata vectors, stage rows, slot
   vectors, undo log and the event records over them. *)
let new_record t : History_file.entry =
  let fw = t.cfg.fetch_width in
  let ctx =
    Context.make ~pc:0 ~fetch_width:fw ~ghist:(Bits.zero t.cfg.ghist_bits)
      ~lhists:(Array.init fw (fun _ -> Bits.zero t.cfg.lhist_bits))
      ~phist:(Bits.zero path_bits) ()
  in
  let metas = Array.map (fun (c : Component.t) -> Bits.zero c.meta_bits) t.comps in
  let predicted = Array.make fw Types.no_branch in
  let effective = Array.make fw Types.no_branch in
  let events ?culprit slots =
    Array.map (fun meta -> { Component.ctx; meta; slots; culprit }) metas
  in
  {
    e_token = -1;
    e_ctx = ctx;
    e_metas = metas;
    e_stages = Array.init t.depth (fun _ -> Row.create ~width:fw);
    e_raw = None;
    e_predicted = predicted;
    e_actual = Array.make fw Types.no_branch;
    e_effective = effective;
    e_packet_len = 0;
    e_dir_bits = Array.make fw false;
    e_dir_len = 0;
    e_path = -1;
    e_lhist_pcs = Array.make fw 0;
    e_lhist_prior = Array.make (fw * Lhist_provider.limbs t.lhist) 0;
    e_lhist_len = 0;
    e_fire_evs = events predicted;
    e_update_evs = events effective;
    e_mispredict_evs = Array.init fw (fun slot -> events ~culprit:slot effective);
  }

(* [stack] with room for an [n+1]th record. *)
let room stack n e =
  if n < Array.length stack then stack
  else begin
    let bigger = Array.make (max 4 (2 * n)) e in
    Array.blit stack 0 bigger 0 n;
    bigger
  end

(* A free record, or a new one when every record is in flight. *)
let acquire t =
  if t.n_spare = 0 then new_record t
  else begin
    t.n_spare <- t.n_spare - 1;
    t.spare.(t.n_spare)
  end

let release t e =
  t.spare <- room t.spare t.n_spare e;
  t.spare.(t.n_spare) <- e;
  t.n_spare <- t.n_spare + 1

(* --- history contributions ------------------------------------------------ *)

let path_bits_per_branch = 3

let shift_dir_bits reg (e : History_file.entry) =
  for i = 0 to e.e_dir_len - 1 do
    Bits.shift_in_lsb_in_place reg e.e_dir_bits.(i)
  done

(* The folded target's bits, lowest first. *)
let shift_path reg (e : History_file.entry) =
  if e.e_path >= 0 then
    for k = 0 to path_bits_per_branch - 1 do
      Bits.shift_in_lsb_in_place reg ((e.e_path lsr k) land 1 = 1)
    done

(* The speculative value of a history register, written into [dst]: its
   value through the last fired packet, shifted by each pending packet's own
   bits, oldest first. *)
let speculate t ~reg ~dst shift =
  Bits.blit ~src:reg ~dst;
  for i = 0 to t.n_pending - 1 do
    shift dst t.pending.(i)
  done

(* Path history contributed by a packet: the folded low target bits of its
   first (acted) taken branch. *)
let path_fold target =
  Cobra_util.Hashing.fold_int (Cobra_util.Hashing.pc_bits target) ~width:62
    ~bits:path_bits_per_branch

let rec path_find_slot (slots : Types.resolved array) len i =
  if i >= len then -1
  else
    let r = slots.(i) in
    if r.r_is_branch && r.r_taken then path_fold r.r_target else path_find_slot slots len (i + 1)

let path_of_slots slots ~packet_len = path_find_slot slots (min packet_len (Array.length slots)) 0

(* The path implied by a stage composite at predict time: the first slot
   predicted as a taken branch, read straight off the row (what
   [path_of_slots] would see through the predicted resolved view, without
   materialising that view); an unknown target folds as 0. *)
let rec path_find_row row len i =
  if i >= len then -1
  else if Row.branch row i && Row.taken row i then
    path_fold (if Row.target_known row i then Row.target row i else 0)
  else path_find_row row len (i + 1)

let path_of_prediction row ~packet_len = path_find_row row (min packet_len (Row.width row)) 0

(* Direction bits implied by per-slot outcomes: one bit per conditional
   branch, stopping after the first taken slot. *)
let rec dir_bits_of_slots (slots : Types.resolved array) len i out n =
  if i >= len then n
  else
    let s = slots.(i) in
    let n =
      if s.r_is_branch && match s.r_kind with Types.Cond -> true | _ -> false then begin
        out.(n) <- s.r_taken;
        n + 1
      end
      else n
    in
    if s.r_is_branch && s.r_taken then n else dir_bits_of_slots slots len (i + 1) out n

let set_dir_bits_of_slots (e : History_file.entry) slots ~packet_len =
  e.e_dir_len <- dir_bits_of_slots slots (min packet_len (Array.length slots)) 0 e.e_dir_bits 0

(* A speculative local-history push, logged with the entry's prior limbs. *)
let push_lhist t (e : History_file.entry) ~pc taken =
  let n = e.e_lhist_len in
  e.e_lhist_pcs.(n) <- pc;
  Lhist_provider.save_limbs t.lhist ~pc e.e_lhist_prior ~pos:(n * Lhist_provider.limbs t.lhist);
  Lhist_provider.push_in_place t.lhist ~pc taken;
  e.e_lhist_len <- n + 1

(* Undo a packet's local-history pushes, youngest first. *)
let unwind_lhist t (e : History_file.entry) =
  let limbs = Lhist_provider.limbs t.lhist in
  for k = e.e_lhist_len - 1 downto 0 do
    Lhist_provider.restore_limbs t.lhist ~pc:e.e_lhist_pcs.(k) e.e_lhist_prior ~pos:(k * limbs)
  done;
  e.e_lhist_len <- 0

(* Slots of [row] within [packet_len] that look like conditional branches
   push a speculative bit into the local history of their own PC. *)
let push_lhists_of_prediction t e ~pc ~packet_len row =
  for i = 0 to min packet_len (Row.width row) - 1 do
    if Row.branch row i && not (Row.unconditional row i) then
      push_lhist t e ~pc:(pc + (4 * i)) (Row.taken row i)
  done

(* Local-history pushes for the conditional branches of a slot vector, up
   to the first taken slot. *)
let push_lhists_of_slots t (e : History_file.entry) (slots : Types.resolved array) ~packet_len =
  let stop = ref false in
  for i = 0 to min packet_len (Array.length slots) - 1 do
    let s = slots.(i) in
    if (not !stop) && s.r_is_branch && match s.r_kind with Types.Cond -> true | _ -> false
    then push_lhist t e ~pc:(Context.slot_pc e.e_ctx i) s.r_taken;
    if s.r_is_branch && s.r_taken then stop := true
  done

(* --- frontend side ------------------------------------------------------ *)

let push_pending t e =
  t.pending <- room t.pending t.n_pending e;
  t.pending.(t.n_pending) <- e;
  t.n_pending <- t.n_pending + 1

let predict t ~pc ~max_len =
  if max_len < 1 || max_len > t.cfg.fetch_width then
    invalid_arg "Pipeline.predict: max_len out of range";
  let e = acquire t in
  let ctx = e.e_ctx in
  (* Slots past [max_len] can never be used this packet: they read as zero
     history, which saves the provider reads without changing what any
     component can see. Only those the record's last packet used need
     clearing. *)
  for i = 0 to t.cfg.fetch_width - 1 do
    if i < max_len then
      Bits.blit ~src:(Lhist_provider.read t.lhist ~pc:(pc + (4 * i))) ~dst:ctx.lhists.(i)
    else if i < ctx.live_slots then Bits.blit ~src:t.lhist_zero ~dst:ctx.lhists.(i)
  done;
  Context.reset ctx ~pc;
  ctx.live_slots <- max_len;
  speculate t ~reg:t.ghist ~dst:ctx.ghist shift_dir_bits;
  speculate t ~reg:t.phist ~dst:ctx.phist shift_path;
  (* The composer's buffers are overwritten by the next predict: the record
     keeps copies of its rows and metadata, and of the raw opinions only
     while an observer is attached. *)
  let fw = t.cfg.fetch_width in
  let stages = Composer.eval t.composer ctx in
  for d = 0 to t.depth - 1 do
    Row.blit ~src:stages.(d) ~dst:e.e_stages.(d) ~len:fw
  done;
  let metas = Composer.metas t.composer in
  for id = 0 to Array.length metas - 1 do
    Bits.blit ~src:metas.(id) ~dst:e.e_metas.(id)
  done;
  (match t.observer with
  | None -> e.e_raw <- None
  | Some _ ->
    let opinions = Composer.opinions t.composer in
    let rows =
      match e.e_raw with
      | Some rows -> rows
      | None -> Array.map (fun _ -> Row.create ~width:fw) opinions
    in
    Array.iteri (fun id row -> Row.blit ~src:row ~dst:rows.(id) ~len:fw) opinions;
    e.e_raw <- Some rows);
  let stage1 = e.e_stages.(0) in
  let packet_len = Row.packet_len stage1 ~max_len in
  let token = t.next_token in
  t.next_token <- token + 1;
  e.e_token <- token;
  e.e_packet_len <- 0;
  e.e_dir_len <- Row.direction_bits_into stage1 ~packet_len e.e_dir_bits;
  e.e_path <- path_of_prediction stage1 ~packet_len;
  e.e_lhist_len <- 0;
  push_lhists_of_prediction t e ~pc ~packet_len stage1;
  push_pending t e;
  (match t.observer with Some f -> f (Predicted { token; pc; max_len }) | None -> ());
  token

(* Threaded-argument recursion: a local closure over [t] and [token] would
   be allocated per lookup, and the host calls this several times per packet
   per cycle. *)
let rec pending_index pending n token i =
  if i >= n then invalid_arg (Printf.sprintf "Pipeline: token %d is not pending" token)
  else if pending.(i).History_file.e_token = token then i
  else pending_index pending n token (i + 1)

let find_pending t token = t.pending.(pending_index t.pending t.n_pending token 0)

let rows t token = (find_pending t token).e_stages
let stages t token = Array.map Row.to_prediction (rows t token)
let context t token = (find_pending t token).e_ctx
let applied_dir_bits t token = History_file.dir_bits (find_pending t token)

let revise_dir_bits t token bits =
  let e = find_pending t token in
  let n = List.length bits in
  if n > t.cfg.fetch_width then
    invalid_arg "Pipeline.revise_dir_bits: more bits than slots in a packet";
  List.iteri (fun i b -> e.e_dir_bits.(i) <- b) bits;
  e.e_dir_len <- n

let pending_tokens t = List.init t.n_pending (fun i -> t.pending.(i).History_file.e_token)

let squash_from t token =
  let k = pending_index t.pending t.n_pending token 0 in
  let n = t.n_pending in
  (* Unwind speculative local-history pushes youngest-first. *)
  for i = n - 1 downto k do
    let e = t.pending.(i) in
    unwind_lhist t e;
    release t e
  done;
  t.n_pending <- k;
  match t.observer with Some f -> f (Squashed { packets = n - k }) | None -> ()

let squash_all_pending t =
  if t.n_pending > 0 then squash_from t t.pending.(0).History_file.e_token

let can_fire t = not (History_file.is_full t.hf)

let fire ?(correct = true) t token ~slots ~packet_len =
  let e =
    if t.n_pending > 0 && t.pending.(0).History_file.e_token = token then t.pending.(0)
    else invalid_arg "Pipeline.fire: token must be the oldest pending packet"
  in
  let fw = t.cfg.fetch_width in
  if Array.length slots <> fw then
    invalid_arg "Pipeline.fire: slots array must have fetch_width entries";
  if packet_len < 1 || packet_len > fw then invalid_arg "Pipeline.fire: packet_len out of range";
  (* Predecode correction: the host now knows the true branch positions, so
     the packet's speculative history bits — global, path and local — are
     recomputed from them, with directions from the acted prediction
     (unless the host models a design without this correction). *)
  if correct then begin
    set_dir_bits_of_slots e slots ~packet_len;
    e.e_path <- path_of_slots slots ~packet_len;
    unwind_lhist t e;
    push_lhists_of_slots t e slots ~packet_len
  end;
  shift_dir_bits t.ghist e;
  shift_path t.phist e;
  for i = 1 to t.n_pending - 1 do
    t.pending.(i - 1) <- t.pending.(i)
  done;
  t.n_pending <- t.n_pending - 1;
  for i = 0 to fw - 1 do
    e.e_predicted.(i) <- slots.(i);
    e.e_actual.(i) <- slots.(i)
  done;
  e.e_packet_len <- packet_len;
  let seq = History_file.enqueue t.hf e in
  for id = 0 to Array.length t.comps - 1 do
    t.comps.(id).fire e.e_fire_evs.(id)
  done;
  (match t.observer with Some f -> f (Fired { seq; entry = e }) | None -> ());
  seq

(* --- backend side ------------------------------------------------------- *)

let check_slot t ~slot =
  if slot < 0 || slot >= t.cfg.fetch_width then invalid_arg "Pipeline: slot out of range"

let resolve t ~seq ~slot resolved =
  check_slot t ~slot;
  let entry = History_file.get t.hf seq in
  entry.e_actual.(slot) <- resolved;
  match t.observer with
  | Some f -> f (Resolved { seq; slot; actual = resolved; entry })
  | None -> ()

(* The slots of the packet's mispredict and update events: resolved (or
   still predicted) outcomes within the packet, no branch beyond. *)
let set_effective t (e : History_file.entry) =
  for i = 0 to t.cfg.fetch_width - 1 do
    e.e_effective.(i) <- (if i < e.e_packet_len then e.e_actual.(i) else Types.no_branch)
  done

let mispredict t ~seq ~slot resolved =
  check_slot t ~slot;
  let entry = History_file.get t.hf seq in
  entry.e_actual.(slot) <- resolved;
  (* Forwards-walk first: repair events for the younger in-flight packets
     being squashed, oldest first (paper Section IV-B2). The culprit's fast
     mispredict update runs after the walk so the corrected state it writes
     is final — younger packets' restored speculative state must not
     clobber it. *)
  for yseq = seq + 1 to History_file.next_seq t.hf - 1 do
    let e = History_file.get t.hf yseq in
    for id = 0 to Array.length t.comps - 1 do
      t.comps.(id).repair e.e_fire_evs.(id)
    done;
    match t.observer with Some f -> f (Repaired { seq = yseq }) | None -> ()
  done;
  (* Fast update for the offending packet. *)
  set_effective t entry;
  let evs = entry.e_mispredict_evs.(slot) in
  for id = 0 to Array.length t.comps - 1 do
    t.comps.(id).mispredict evs.(id)
  done;
  (match t.observer with
  | Some f -> f (Mispredicted { seq; slot; actual = resolved; entry })
  | None -> ());
  squash_all_pending t;
  while History_file.next_seq t.hf > seq + 1 do
    let e = History_file.drop_newest t.hf in
    unwind_lhist t e;
    release t e
  done;
  (* The packet is cut at the culprit: younger slots were squashed (either
     the branch was taken, or the not-taken refetch starts a new packet).
     Its history bits — global, path and local — are recomputed from the
     surviving slots, and the global and path registers restored from its
     snapshots plus those bits. *)
  entry.e_packet_len <- slot + 1;
  set_effective t entry;
  let packet_len = entry.e_packet_len in
  set_dir_bits_of_slots entry entry.e_effective ~packet_len;
  entry.e_path <- path_of_slots entry.e_effective ~packet_len;
  unwind_lhist t entry;
  push_lhists_of_slots t entry entry.e_effective ~packet_len;
  Bits.blit ~src:entry.e_ctx.Context.ghist ~dst:t.ghist;
  shift_dir_bits t.ghist entry;
  Bits.blit ~src:entry.e_ctx.Context.phist ~dst:t.phist;
  shift_path t.phist entry

let commit t =
  if History_file.length t.hf = 0 then invalid_arg "Pipeline.commit: history file empty";
  let seq = History_file.oldest_seq t.hf in
  let entry = History_file.dequeue t.hf in
  set_effective t entry;
  for id = 0 to Array.length t.comps - 1 do
    t.comps.(id).update entry.e_update_evs.(id)
  done;
  (match t.observer with
  | Some f -> f (Committed { seq; packet_len = entry.e_packet_len; slots = entry.e_effective })
  | None -> ());
  release t entry

let inflight t = History_file.length t.hf

let oldest_seq t =
  if History_file.length t.hf = 0 then None else Some (History_file.oldest_seq t.hf)

let speculative_value t reg shift =
  let v = Bits.zero (Bits.width reg) in
  speculate t ~reg ~dst:v shift;
  v

let ghist_value t = speculative_value t t.ghist shift_dir_bits
let phist_value t = speculative_value t t.phist shift_path

let lhist_value t ~pc = Bits.copy (Lhist_provider.read t.lhist ~pc)
let entry t seq = History_file.get t.hf seq

(* ------------------------------------------------------------------ *)
(* Whole-design snapshot: one flat slab covering the management state
   plus every component's state slab. Both engines write and read it
   through [write_slab]/[read_slab], so slabs interchange between them.

   Layout (cells):
     [0]                          next_token
     [1 .. ]                      ghist limbs        (Bits.limbs_for ghist_bits)
     then                         path  limbs        (Bits.limbs_for path_bits)
     then, per lhist entry        its history limbs  (Bits.limbs_for lhist_bits)
     then, per component in order its state slab     (Component.state_cells)

   The pipeline is only snapshotted quiesced (no pending packets, empty
   history file): that is the natural state between replay windows, and
   it means no pending packet shifts the global and path registers, so
   their limbs capture everything. *)

module Slab = Cobra_util.Slab

let quiesced t = t.n_pending = 0 && History_file.length t.hf = 0

let slab_cells cfg comps =
  Array.fold_left
    (fun acc c -> acc + Component.state_cells c)
    (1 + Bits.limbs_for cfg.ghist_bits
    + Bits.limbs_for path_bits
    + (cfg.lhist_entries * Bits.limbs_for cfg.lhist_bits))
    comps


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
         t.n_pending (History_file.length t.hf));
  write_slab t.cfg t.comps ~next_token:t.next_token ~ghist:t.ghist ~path:t.phist t.lhist

let restore t slab =
  if History_file.length t.hf <> 0 then
    invalid_arg "Pipeline.restore: history file not empty";
  (* In place: contexts own copies of their histories, and the
     introspection values are copies too. Pending packets' local-history
     pushes are overwritten with the rest of the table. *)
  t.next_token <-
    read_slab ~engine:"pipeline" t.cfg t.comps slab ~ghist:t.ghist ~path:t.phist t.lhist;
  for i = 0 to t.n_pending - 1 do
    release t t.pending.(i)
  done;
  t.n_pending <- 0
