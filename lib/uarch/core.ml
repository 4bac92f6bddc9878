module Pipeline = Cobra.Pipeline
module Types = Cobra.Types
module Row = Cobra.Row
module Trace = Cobra_isa.Trace
module Cb = Cobra_util.Circular_buffer

type slot_content =
  | Real of Trace.event  (* retired-path instruction *)
  | Decoded of Trace.event  (* wrong-path instruction, statically decoded *)
  | Junk  (* wrong-path bytes with no program image behind them *)

(* A fetch packet in flight inside the predictor pipeline. A retired-path
   packet's [Real] slots are a prefix of [contents], read from consecutive
   stream positions starting at [first]. *)
type fpacket = {
  tok : Pipeline.token;
  fp_pc : int;
  max_len : int;
  contents : slot_content array;  (* length max_len *)
  first : int;  (* stream position of slot 0; -1 for a wrong-path packet *)
  mutable stage : int;
  mutable acted_slot : int option;  (* slot of the taken branch acted upon *)
  mutable acted_len : int;
  mutable acted_next : int;
  mutable fire_decision : (decision * bool) option;
      (* memoised corrected decision while the fire stalls *)
}

and decision = { d_slot : int option; d_len : int; d_next : int }

(* One fired instruction, from fire to commit: the fetch buffer queues it
   and dispatch moves the same record into the reorder buffer. *)
type rentry = {
  content : slot_content;
  r_pos : int;  (* stream position of a [Real] instruction; -1 otherwise *)
  r_seq : int;  (* history-file sequence *)
  r_slot : int;
  pred_taken : bool;
  pred_target : int;
  r_ras : Ras.snapshot;  (* checkpoint for flush-time repair *)
  mutable complete : int;  (* set at dispatch *)
  mutable resolved : bool;  (* false for a retired-path branch until it resolves *)
}

type t = {
  cfg : Config.t;
  pl : Pipeline.t;
  decode : int -> Trace.event option;
  stream : Trace.Window.t;
  mem : Mem_model.t;
  ras : Ras.t;
  perf : Perf.t;
  depth : int;
  width : int;  (* the pipeline's fetch width *)
  mutable cycle : int;
  mutable fetch_pc : int;
  mutable fetch_resume : int;
  mutable inflight : fpacket list;  (* oldest first *)
  fb : rentry Queue.t;
  rob : rentry Cb.t;
  mutable pending_branches : int list;  (* rob ids, oldest first *)
  fire_scratch : Types.resolved array;
      (* per-fire predicted-outcome slots handed to [Pipeline.fire], which
         copies the records into the history file but never keeps the array
         itself, so one [width]-sized buffer serves every fire *)
  dir_scratch : bool array;  (* a stage row's direction bits, read by [stage_dir_bits] *)
  scoreboard : int array;
  alu_busy : int array;
  mem_busy : int array;
  fp_busy : int array;
  mutable last_committed_seq : int;
  mutable started : bool;
  mutable consec_wrong_path : int;
  mutable sampler : (unit -> unit) option;
      (* per-cycle callback for statistics collectors; kept generic so the
         core model does not depend on the stats library *)
}

(* Return-address stack entries, and consecutive wrong-path packets fetched
   before the frontend gates itself until the next redirect. *)
let ras_entries = 16
let wrong_path_fetch_limit = 16

let create ?(decode = fun _ -> None) cfg pl stream =
  let width = (Pipeline.config pl).Pipeline.fetch_width in
  {
    cfg;
    pl;
    decode;
    stream =
      Trace.Window.create (if cfg.Config.sfb_optimization then Sfb.transform stream else stream);
    mem = Mem_model.create ();
    ras = Ras.create ~entries:ras_entries;
    perf = Perf.create ();
    depth = Pipeline.depth pl;
    width;
    cycle = 0;
    fetch_pc = 0;
    fetch_resume = 0;
    inflight = [];
    fb = Queue.create ();
    rob = Cb.create ~capacity:cfg.Config.rob_entries;
    pending_branches = [];
    fire_scratch = Array.make width Types.no_branch;
    dir_scratch = Array.make width false;
    scoreboard = Array.make 32 0;
    alu_busy = Array.make cfg.Config.int_alus 0;
    mem_busy = Array.make cfg.Config.mem_ports 0;
    fp_busy = Array.make cfg.Config.fp_units 0;
    last_committed_seq = -1;
    started = false;
    consec_wrong_path = 0;
    sampler = None;
  }

let perf t = t.perf
let set_sampler t s = t.sampler <- s

(* --- fetch decisions ------------------------------------------------------ *)

(* Interpret a stage composite as a fetch redirection decision, with the
   return-address stack supplying targets for predicted returns. *)
let decide t pkt ~stage =
  let comp = (Pipeline.rows t.pl pkt.tok).(stage - 1) in
  let i = Row.taken_slot comp ~max_len:pkt.max_len in
  if i < 0 then
    { d_slot = None; d_len = Row.packet_len comp ~max_len:pkt.max_len;
      d_next = pkt.fp_pc + (4 * pkt.max_len) }
  else
    let target =
      match Row.kind comp i with
      | Types.Ret when Row.kind_known comp i ->
        Option.value (Ras.peek t.ras) ~default:(Row.target comp i)
      | _ -> Row.target comp i
    in
    { d_slot = Some i; d_len = i + 1; d_next = target }

let stage_dir_bits t pkt ~stage ~len =
  let comp = (Pipeline.rows t.pl pkt.tok).(stage - 1) in
  let n = Row.direction_bits_into comp ~packet_len:len t.dir_scratch in
  List.init n (fun i -> t.dir_scratch.(i))

let apply_decision pkt d =
  pkt.acted_slot <- d.d_slot;
  pkt.acted_len <- d.d_len;
  pkt.acted_next <- d.d_next

(* --- squashing ------------------------------------------------------------ *)

(* Rewind the stream to the oldest retired-path packet among [pkts] (oldest
   first), so that fetch reads its instructions again. *)
let rec rewind_to_oldest_real t = function
  | [] -> ()
  | p :: rest ->
    if p.first >= 0 then Trace.Window.rewind t.stream p.first
    else rewind_to_oldest_real t rest

(* Squash every in-flight packet younger than [pkt]; their retired-path
   instructions will be fetched again. *)
let squash_younger_inflight t pkt =
  let rec split = function
    | [] -> ([], [])
    | p :: rest when p == pkt ->
      ([ p ], rest)
    | p :: rest ->
      let keep, squashed = split rest in
      (p :: keep, squashed)
  in
  let keep, squashed = split t.inflight in
  (match squashed with
  | [] -> ()
  | oldest :: _ ->
    rewind_to_oldest_real t squashed;
    Pipeline.squash_from t.pl oldest.tok);
  t.inflight <- keep

(* --- frontend: fetch ------------------------------------------------------ *)

let slots_to_block_end t pc = t.width - ((pc / 4) mod t.width)

(* Pull the packet's correct-path contents from the stream; slots past an
   actually-taken branch hold wrong-path block content (Junk). *)
let pull_contents t ~pc ~max_len =
  let contents = Array.make max_len Junk in
  let i = ref 0 in
  let expected = ref pc in
  let continue_ = ref true in
  while !continue_ && !i < max_len do
    (match Trace.Window.peek t.stream with
    | Some ev when ev.Trace.pc = !expected ->
      ignore (Trace.Window.next t.stream);
      contents.(!i) <- Real ev;
      let seq_next = !expected + 4 in
      (* an actually-taken branch ends the correct-path content; later
         slots hold wrong-path block bytes *)
      if ev.Trace.next_pc = seq_next then begin
        incr i;
        expected := seq_next
      end
      else continue_ := false
    | Some _ | None -> continue_ := false)
  done;
  contents

let rec first_branch_slot_from contents n i =
  if i >= n then None
  else
    match contents.(i) with
    | (Real ev | Decoded ev) when ev.Trace.branch != None -> Some i
    | Real _ | Decoded _ | Junk -> first_branch_slot_from contents n (i + 1)

let first_branch_slot contents = first_branch_slot_from contents (Array.length contents) 0

let on_true_path t =
  match Trace.Window.peek t.stream with
  | Some ev -> ev.Trace.pc = t.fetch_pc
  | None -> false

let fetch_one t =
  let pc = t.fetch_pc in
  let icache_lat = Mem_model.fetch_latency t.mem ~addr:pc in
  if icache_lat > 0 then begin
    t.fetch_resume <- t.cycle + icache_lat;
    t.perf.Perf.icache_stall_cycles <- t.perf.Perf.icache_stall_cycles + icache_lat
  end
  else begin
    let block_len = slots_to_block_end t pc in
    let real = on_true_path t in
    let first = if real then Trace.Window.position t.stream else -1 in
    let contents =
      if real then pull_contents t ~pc ~max_len:block_len
      else
        (* wrong path: fetch real instructions from the program image *)
        Array.init block_len (fun i ->
            match t.decode (pc + (4 * i)) with Some ev -> Decoded ev | None -> Junk)
    in
    (* Serialized fetch (paper Section I): the packet ends at its first
       branch, so at most one branch is predicted per cycle. *)
    let max_len =
      if t.cfg.Config.serialize_fetch && real then
        match first_branch_slot contents with Some i -> i + 1 | None -> block_len
      else block_len
    in
    let contents =
      if max_len = block_len then contents
      else begin
        (* the branch ending the packet is a retired-path slot, so the
           instructions pulled into the truncated slots are fetched again *)
        Trace.Window.rewind t.stream (first + max_len);
        Array.sub contents 0 max_len
      end
    in
    let tok = Pipeline.predict t.pl ~pc ~max_len in
    let pkt =
      {
        tok;
        fp_pc = pc;
        max_len;
        contents;
        first;
        stage = 1;
        acted_slot = None;
        acted_len = max_len;
        acted_next = pc + (4 * max_len);
        fire_decision = None;
      }
    in
    apply_decision pkt (decide t pkt ~stage:1);
    t.fetch_pc <- pkt.acted_next;
    t.inflight <- t.inflight @ [ pkt ];
    t.perf.Perf.fetch_packets <- t.perf.Perf.fetch_packets + 1;
    if real then t.consec_wrong_path <- 0
    else begin
      t.perf.Perf.wrong_path_packets <- t.perf.Perf.wrong_path_packets + 1;
      t.consec_wrong_path <- t.consec_wrong_path + 1
    end
  end

(* --- frontend: fire (packet leaves the predictor pipeline) ---------------- *)

(* The decode-corrected fetch decision: direct jumps and calls resolve their
   targets at decode; predicted-taken slots holding non-branches are
   misfetches; conditional and indirect slots keep the acted prediction. *)
let corrected_decision t pkt =
  let fallthrough = pkt.fp_pc + (4 * pkt.max_len) in
  let misfetch = ref false in
  let rec walk i =
    if i >= pkt.max_len then { d_slot = None; d_len = pkt.max_len; d_next = fallthrough }
    else
      let predicted_taken_here =
        match pkt.acted_slot with Some j -> j = i | None -> false
      in
      match pkt.contents.(i) with
      | Real ev | Decoded ev -> (
        match ev.Trace.branch with
        | Some { Trace.kind = Types.Jump | Types.Call; target; _ } ->
          (* decode-certain unconditional direct branch *)
          if not (predicted_taken_here && pkt.acted_next = target) then misfetch := true;
          { d_slot = Some i; d_len = i + 1; d_next = target }
        | Some { Trace.kind = Types.Ret; _ } ->
          let target =
            if predicted_taken_here then pkt.acted_next
            else Option.value (Ras.peek t.ras) ~default:fallthrough
          in
          if not predicted_taken_here then misfetch := true;
          { d_slot = Some i; d_len = i + 1; d_next = target }
        | Some { Trace.kind = Types.Ind; _ } ->
          if predicted_taken_here then { d_slot = Some i; d_len = i + 1; d_next = pkt.acted_next }
          else walk (i + 1)
        | Some { Trace.kind = Types.Cond; _ } ->
          if predicted_taken_here then { d_slot = Some i; d_len = i + 1; d_next = pkt.acted_next }
          else walk (i + 1)
        | None ->
          if predicted_taken_here then misfetch := true;
          walk (i + 1))
      | Junk ->
        if predicted_taken_here then
          { d_slot = Some i; d_len = i + 1; d_next = pkt.acted_next }
        else walk (i + 1)
  in
  let d = walk 0 in
  (d, !misfetch || d.d_next <> pkt.acted_next)

(* A wrong-path slot with no instruction behind it holds whatever branch
   the final composite believed in, of kind [Cond] when it knew none. *)
let opinion_resolved row i ~taken ~target =
  if Row.branch row i then Types.resolved_branch ~kind:(Row.kind row i) ~taken ~target
  else Types.no_branch

(* Build the predicted per-slot outcomes handed to Pipeline.fire: branch
   positions and kinds come from predecode (real slots), directions from the
   acted decision. *)
let fire_slots t pkt (d : decision) ~comp =
  let slots = t.fire_scratch in
  for i = 0 to t.width - 1 do
    slots.(i) <-
      (if i >= d.d_len || i >= pkt.max_len then Types.no_branch
       else
         let taken = match d.d_slot with Some j -> j = i | None -> false in
         let target = if taken then d.d_next else 0 in
         match pkt.contents.(i) with
         | Real ev | Decoded ev -> (
           match ev.Trace.branch with
           | Some info -> Types.resolved_branch ~kind:info.Trace.kind ~taken ~target
           | None -> Types.no_branch)
         | Junk -> opinion_resolved comp i ~taken ~target)
  done;
  slots

let ras_event t pkt i = function
  | Types.Call -> Ras.push t.ras (pkt.fp_pc + (4 * (i + 1)))
  | Types.Ret -> ignore (Ras.pop t.ras)
  | Types.Cond | Types.Jump | Types.Ind -> ()

let update_ras t pkt (d : decision) ~comp =
  for i = 0 to d.d_len - 1 do
    match pkt.contents.(i) with
    | Real ev | Decoded ev -> (
      match ev.Trace.branch with Some b -> ras_event t pkt i b.Trace.kind | None -> ())
    | Junk -> if Row.branch comp i && Row.kind_known comp i then ras_event t pkt i (Row.kind comp i)
  done

let fb_room t n = Queue.length t.fb + n <= t.cfg.Config.fetch_buffer

(* Returns false when the fire had to stall. *)
let try_fire t pkt =
  let d, misfetch =
    (* the packet's stages, acted decision and the RAS cannot change while
       the fire stalls (it is the oldest packet), so memoise *)
    match pkt.fire_decision with
    | Some dm -> dm
    | None ->
      let dm = corrected_decision t pkt in
      pkt.fire_decision <- Some dm;
      dm
  in
  if not (fb_room t d.d_len && Pipeline.can_fire t.pl) then begin
    t.perf.Perf.frontend_stall_cycles <- t.perf.Perf.frontend_stall_cycles + 1;
    false
  end
  else begin
    if misfetch then begin
      t.perf.Perf.misfetches <- t.perf.Perf.misfetches + 1;
      squash_younger_inflight t pkt;
      t.fetch_pc <- d.d_next;
      (* Only a correction grounded in real (retired-path) content rejoins
         the true path and may unthrottle wrong-path fetch; decode-time
         redirects of wrong-path packets must not, or a static jump cycle in
         never-executed code would be chased forever. *)
      if pkt.first >= 0 then t.consec_wrong_path <- 0
    end;
    apply_decision pkt d;
    (* Retired-path slots beyond the fired packet length (a predicted-taken
       branch cut the packet) are fetched again. Younger in-flight packets
       that already read later instructions are squashed first, since the
       rewind below hands those instructions out again. *)
    if d.d_len < pkt.max_len
       && (match pkt.contents.(d.d_len) with Real _ -> true | Decoded _ | Junk -> false)
    then begin
      if List.exists (fun p -> p != pkt && p.first >= 0) t.inflight then
        squash_younger_inflight t pkt;
      Trace.Window.rewind t.stream (pkt.first + d.d_len)
    end;
    let comp = (Pipeline.rows t.pl pkt.tok).(t.depth - 1) in
    let slots = fire_slots t pkt d ~comp in
    let packet_len = max 1 d.d_len in
    (* Without history management (VI-B's "none") the packet's Fetch-1
       bits stay in the history. Each arm passes a constant, so no fire
       allocates an option. *)
    let seq =
      match t.cfg.Config.history_divergence with
      | Config.Ignore -> Pipeline.fire ~correct:false t.pl pkt.tok ~slots ~packet_len
      | Config.Repair | Config.Replay -> Pipeline.fire t.pl pkt.tok ~slots ~packet_len
    in
    update_ras t pkt d ~comp;
    let ras_snap = Ras.checkpoint t.ras in
    for i = 0 to d.d_len - 1 do
      let taken_here = match d.d_slot with Some j -> j = i | None -> false in
      let content = pkt.contents.(i) in
      Queue.add
        {
          content;
          r_pos = (match content with Real _ -> pkt.first + i | Decoded _ | Junk -> -1);
          r_seq = seq;
          r_slot = i;
          pred_taken = taken_here;
          pred_target = (if taken_here then d.d_next else 0);
          r_ras = ras_snap;
          complete = 0;
          resolved =
            (match content with
            | Real { Trace.branch = Some _; _ } -> false
            | Real _ | Decoded _ | Junk -> true);
        }
        t.fb
    done;
    t.inflight <- (match t.inflight with _ :: rest -> rest | [] -> []);
    true
  end

(* --- frontend: per-cycle advance ------------------------------------------ *)

let advance_frontend t =
  (* Fire the oldest packet if it has traversed the predictor pipeline. *)
  let fired = ref false in
  let stalled =
    match t.inflight with
    | oldest :: _ when oldest.stage >= t.depth ->
      let ok = try_fire t oldest in
      if ok then fired := true;
      not ok
    | _ -> false
  in
  if not stalled then begin
    (* Advance remaining packets one stage. Fetch happens before override
       processing: in hardware the next packet is fetched in parallel with a
       late-stage override, so a redirect at stage d kills the d-1 packets
       behind it (the bubble cost of slow components). *)
    List.iter (fun p -> p.stage <- min t.depth (p.stage + 1)) t.inflight;
    (* the throttle only suppresses wrong-path fetch, never a fetch that is
       back on the retired path *)
    if
      t.cycle >= t.fetch_resume
      && List.length t.inflight < t.depth + 2
      && (t.consec_wrong_path < wrong_path_fetch_limit || on_true_path t)
    then fetch_one t;
    let rec process = function
      | [] -> ()
      | pkt :: rest ->
        if List.memq pkt t.inflight && pkt.stage >= 2 then begin
          let d = decide t pkt ~stage:pkt.stage in
          if d.d_next <> pkt.acted_next then begin
            (* Late-stage override: redirect fetch, killing younger packets. *)
            squash_younger_inflight t pkt;
            apply_decision pkt d;
            (let bits = stage_dir_bits t pkt ~stage:pkt.stage ~len:d.d_len in
             if bits <> Pipeline.applied_dir_bits t.pl pkt.tok then
               Pipeline.revise_dir_bits t.pl pkt.tok bits);
            t.fetch_pc <- d.d_next;
            t.consec_wrong_path <- 0
          end
          else begin
            let bits = stage_dir_bits t pkt ~stage:pkt.stage ~len:d.d_len in
            if bits <> Pipeline.applied_dir_bits t.pl pkt.tok then begin
              (* History divergence without a PC change (Section VI-B). *)
              t.perf.Perf.history_divergences <- t.perf.Perf.history_divergences + 1;
              (match t.cfg.Config.history_divergence with
              | Config.Ignore -> ()
              | Config.Repair | Config.Replay -> Pipeline.revise_dir_bits t.pl pkt.tok bits);
              apply_decision pkt d;
              match t.cfg.Config.history_divergence with
              | Config.Ignore | Config.Repair -> ()
              | Config.Replay ->
                t.perf.Perf.replays <- t.perf.Perf.replays + 1;
                squash_younger_inflight t pkt;
                t.fetch_pc <- d.d_next;
                t.consec_wrong_path <- 0
            end
          end
        end;
        process rest
    in
    process t.inflight
  end;
  (not stalled && t.inflight <> []) || !fired

(* --- backend: dispatch ----------------------------------------------------- *)

let unit_pick busy ~ready =
  let best = ref 0 in
  for u = 1 to Array.length busy - 1 do
    if busy.(u) < busy.(!best) then best := u
  done;
  let issue = max ready (busy.(!best) + 1) in
  (!best, issue)

let dispatch_one t e =
  let dispatch_ready = t.cycle + 1 in
  let timed ev ~wrong_path =
    let ready =
      List.fold_left (fun acc r -> max acc t.scoreboard.(r)) dispatch_ready ev.Trace.srcs
    in
    let busy, latency =
      match ev.Trace.cls with
      | Trace.Load ->
        (* wrong-path loads have no architectural address: charge an L1 hit *)
        ( t.mem_busy,
          if wrong_path then Mem_model.default_latencies.Mem_model.l1
          else Mem_model.load_latency t.mem ~addr:(Option.value ev.Trace.addr ~default:0) )
      | Trace.Store ->
        ( t.mem_busy,
          if wrong_path then 1
          else Mem_model.store_latency t.mem ~addr:(Option.value ev.Trace.addr ~default:0) )
      | Trace.Fp -> (t.fp_busy, Trace.exec_latency Trace.Fp)
      | Trace.Mul -> (t.alu_busy, Trace.exec_latency Trace.Mul)
      | Trace.Div -> (t.alu_busy, Trace.exec_latency Trace.Div)
      | Trace.Alu | Trace.Nop -> (t.alu_busy, 1)
    in
    let u, issue = unit_pick busy ~ready in
    busy.(u) <- (match ev.Trace.cls with Trace.Div -> issue + 11 | _ -> issue);
    let complete = issue + max 1 latency in
    (* wrong-path destinations are renamed away and never reach the
       architectural scoreboard *)
    if not wrong_path then
      (match ev.Trace.dst with Some r -> t.scoreboard.(r) <- complete | None -> ());
    complete
  in
  e.complete <-
    (match e.content with
    | Junk ->
      (* wrong-path bytes with no program behind them: a quick filler *)
      dispatch_ready + 1
    | Decoded ev -> timed ev ~wrong_path:true
    | Real ev -> timed ev ~wrong_path:false);
  let rid = Cb.enqueue t.rob e in
  if not e.resolved then t.pending_branches <- t.pending_branches @ [ rid ]

let dispatch t =
  let n = ref 0 in
  while
    !n < t.cfg.Config.decode_width
    && (not (Queue.is_empty t.fb))
    && not (Cb.is_full t.rob)
  do
    dispatch_one t (Queue.pop t.fb);
    incr n
  done;
  !n > 0

(* --- backend: branch resolution -------------------------------------------- *)

(* Flush everything younger than the mispredicted branch [e] at [rid]: fetch
   reads the retired path again from the instruction after it. *)
let flush_backend_younger t rid e =
  Trace.Window.rewind t.stream (e.r_pos + 1);
  Cb.drop_newer_than t.rob rid;
  Queue.clear t.fb;
  (* Pipeline.mispredict has already squashed all pending queries. *)
  t.inflight <- [];
  t.pending_branches <- List.filter (fun id -> id <= rid) t.pending_branches;
  t.perf.Perf.flushes <- t.perf.Perf.flushes + 1

let resolve_branches t =
  let any = ref false in
  let rec loop = function
    | [] -> ()
    | rid :: rest ->
      let e = Cb.get t.rob rid in
      if e.complete > t.cycle then loop rest
      else begin
        any := true;
        let ev =
          match e.content with Real ev -> ev | Decoded _ | Junk -> assert false
        in
        let info =
          match ev.Trace.branch with
          | Some info -> info
          | None ->
            failwith
              (Printf.sprintf
                 "Core.resolve_branches: ROB entry at pc=0x%x tracked as a \
                  pending branch carries no branch info (cycle %d)"
                 ev.Trace.pc t.cycle)
        in
        let actual_taken = info.Trace.taken in
        let actual =
          Types.resolved_branch ~kind:info.Trace.kind ~taken:actual_taken
            ~target:info.Trace.target
        in
        e.resolved <- true;
        t.pending_branches <- List.filter (fun id -> id <> rid) t.pending_branches;
        let mispredicted =
          e.pred_taken <> actual_taken
          || (actual_taken && e.pred_target <> info.Trace.target)
        in
        if mispredicted then begin
          if t.cfg.Config.ras_repair then Ras.restore t.ras e.r_ras;
          t.perf.Perf.mispredicts <- t.perf.Perf.mispredicts + 1;
          if info.Trace.kind = Types.Cond then
            t.perf.Perf.cond_mispredicts <- t.perf.Perf.cond_mispredicts + 1;
          Pipeline.mispredict t.pl ~seq:e.r_seq ~slot:e.r_slot actual;
          flush_backend_younger t rid e;
          t.fetch_pc <- ev.Trace.next_pc;
          t.consec_wrong_path <- 0;
          t.fetch_resume <- max t.fetch_resume (t.cycle + 1)
          (* younger pending branches are gone; stop *)
        end
        else begin
          Pipeline.resolve t.pl ~seq:e.r_seq ~slot:e.r_slot actual;
          loop rest
        end
      end
  in
  loop t.pending_branches;
  !any

(* --- backend: commit --------------------------------------------------------- *)

(* Retire the history file's packets older than sequence [below]. *)
let rec retire_history t ~below =
  match Pipeline.oldest_seq t.pl with
  | Some s when s < below ->
    Pipeline.commit t.pl;
    retire_history t ~below
  | Some _ | None -> ()

let commit t =
  let n = ref 0 in
  let continue_ = ref true in
  while !continue_ && !n < t.cfg.Config.commit_width do
    match Cb.oldest t.rob with
    | Some (_rid, e) when e.complete <= t.cycle && e.resolved ->
      ignore (Cb.dequeue t.rob);
      (match e.content with
      | Real ev ->
        Trace.Window.release t.stream (e.r_pos + 1);
        if ev.Trace.cls <> Trace.Nop then
          t.perf.Perf.instructions <- t.perf.Perf.instructions + 1;
        (match ev.Trace.branch with
        | Some info ->
          t.perf.Perf.branches <- t.perf.Perf.branches + 1;
          if info.Trace.kind = Types.Cond then
            t.perf.Perf.cond_branches <- t.perf.Perf.cond_branches + 1
        | None -> ())
      | Decoded _ | Junk -> ());
      (* Retire older history-file packets once a younger packet commits. *)
      if e.r_seq > t.last_committed_seq then begin
        retire_history t ~below:e.r_seq;
        t.last_committed_seq <- e.r_seq
      end;
      incr n
    | Some _ | None -> continue_ := false
  done;
  !n > 0

(* --- top level ---------------------------------------------------------------- *)

(* The backend is empty and no retired-path packet is in flight. *)
let drained t =
  Queue.is_empty t.fb && Cb.is_empty t.rob && List.for_all (fun p -> p.first < 0) t.inflight

let finished t = Trace.Window.peek t.stream = None && drained t

let run t ~max_insns =
  (* a safety bound on the simulated time *)
  let max_cycles = (20 * max_insns) + 100_000 in
  if not t.started then begin
    t.started <- true;
    match Trace.Window.peek t.stream with
    | Some ev -> t.fetch_pc <- ev.Trace.pc
    | None -> ()
  end;
  while
    t.perf.Perf.instructions < max_insns && t.cycle < max_cycles && not (finished t)
  do
    t.cycle <- t.cycle + 1;
    t.perf.Perf.cycles <- t.cycle;
    let resolved = resolve_branches t in
    let committed = commit t in
    let dispatched = dispatch t in
    let frontend_active = advance_frontend t in
    (match t.sampler with Some f -> f () | None -> ());
    if not (resolved || committed || dispatched || frontend_active) then begin
      (* Idle: everything is waiting on a future event. Jump to the
         earliest one (the skipped cycles still count). *)
      let candidates = ref [] in
      if t.fetch_resume > t.cycle then candidates := t.fetch_resume :: !candidates;
      (match Cb.oldest t.rob with
      | Some (_, e) when e.complete > t.cycle -> candidates := e.complete :: !candidates
      | Some _ | None -> ());
      List.iter
        (fun rid ->
          let e = Cb.get t.rob rid in
          if e.complete > t.cycle then candidates := e.complete :: !candidates)
        t.pending_branches;
      match !candidates with
      | [] ->
        (* Fully drained with fetch stranded off-path (a wrong-path decode
           chain can leave fetch_pc in never-executed code with nothing left
           to resolve — an artifact of not executing wrong-path semantics).
           Recover by steering fetch back to the retired path. *)
        (match Trace.Window.peek t.stream with
        | Some ev when drained t ->
          t.fetch_pc <- ev.Trace.pc;
          t.consec_wrong_path <- 0
        | Some _ | None -> ())
      | c :: rest ->
        let target = List.fold_left min c rest in
        t.cycle <- max t.cycle (target - 1);
        t.perf.Perf.cycles <- t.cycle
    end
  done;
  (* Only force-retire the history file once the program is over: [run] is
     resumable (the instruction budget is cumulative), and draining entries
     whose branches are still in flight would make a later resolution look
     up a seq the history file no longer holds. *)
  if finished t then retire_history t ~below:max_int;
  t.perf
