module Bits = Cobra_util.Bits
module Bitpack = Cobra_util.Bitpack
module Bitops = Cobra_util.Bitops
module Counter = Cobra_util.Counter
module Hashing = Cobra_util.Hashing
module Rng = Cobra_util.Rng
module C = Cobra_components
open Cobra

type 'a model = {
  name : string;
  meta_bits : int;
  arity : int;
  init : 'a;
  predict :
    'a -> Context.t -> pred_in:Types.prediction list -> Types.prediction * Bits.t;
  fire : 'a -> Component.event -> 'a;
  mispredict : 'a -> Component.event -> 'a;
  repair : 'a -> Component.event -> 'a;
  update : 'a -> Component.event -> 'a;
  invariant : 'a -> (unit, string) result;
}

type packed =
  | P : {
      model : 'a model;
      kind : string;
      make_real : unit -> Component.t;
      storage_bits : int;
    }
      -> packed

let packed_name (P { model; _ }) = model.name

(* --- persistent sparse tables ---------------------------------------------- *)

module IMap = Map.Make (Int)

type 'a tab = { default : 'a; cells : 'a IMap.t }

let tab default = { default; cells = IMap.empty }
let tget t i = match IMap.find_opt i t.cells with Some v -> v | None -> t.default
let tset t i v = { t with cells = IMap.add i v t.cells }
let tmap f t = { t with cells = IMap.map f t.cells }
let tfold f t acc = IMap.fold (fun _ v acc -> f v acc) t.cells acc

(* --- small helpers ---------------------------------------------------------- *)

let ok = Ok ()
let errf fmt = Printf.ksprintf (fun s -> Error s) fmt
let keep st (_ : Component.event) = st
let obit = function Some true -> 1 | _ -> 0
let ovalid = function Some _ -> 1 | None -> 0

let one_pred_in name = function
  | [ p ] -> p
  | _ -> invalid_arg (name ^ " (golden): expected exactly one predict_in")

let rep n layout = List.concat_map (fun _ -> layout) (List.init n Fun.id)

(* Split an unpacked field list into per-slot groups. *)
let chunks n xs =
  let rec split k ys =
    if k = 0 then ([], ys)
    else
      match ys with
      | y :: rest ->
        let h, t = split (k - 1) rest in
        (y :: h, t)
      | [] -> invalid_arg "Golden.chunks: short field list"
  in
  let rec go acc = function
    | [] -> List.rev acc
    | ys ->
      let h, t = split n ys in
      go (h :: acc) t
  in
  go [] xs

(* Fold a state transformer over the per-slot metadata groups of an event. *)
let fold_meta_slots (ev : Component.event) ~slot_layout ~fw f st =
  let fields = Bitpack.unpack ev.meta (rep fw slot_layout) in
  let _, st =
    List.fold_left
      (fun (slot, st) group -> (slot + 1, f st ~slot group))
      (0, st)
      (chunks (List.length slot_layout) fields)
  in
  st

let check_cells ~name ~what pred t =
  tfold
    (fun v acc ->
      match acc with
      | Error _ -> acc
      | Ok () -> if pred v then ok else errf "%s (golden): %s out of range" name what)
    t ok

(* Reference re-implementation of the parameterised indexing combinators,
   deliberately bypassing the memoized Context folds. *)
let rec source_index (src : C.Indexing.t) (ctx : Context.t) ~slot ~bits =
  match src with
  | C.Indexing.Pc -> Hashing.pc_index ~pc:(Context.slot_pc ctx slot) ~bits
  | C.Indexing.Ghist n -> Hashing.folded_history ctx.ghist ~len:n ~bits
  | C.Indexing.Lhist n -> Hashing.folded_history ctx.lhists.(slot) ~len:n ~bits
  | C.Indexing.Phist n -> Hashing.folded_history ctx.phist ~len:n ~bits
  | C.Indexing.Hash srcs ->
    Hashing.combine ~bits (List.map (fun s -> source_index s ctx ~slot ~bits) srcs)
  | C.Indexing.Concat parts ->
    List.fold_left
      (fun acc (s, w) -> (acc lsl w) lor source_index s ctx ~slot ~bits:w)
      0 parts

(* --- counter table: hbim, which gshare and gselect are indexings of ----------- *)

(* One saturating counter per slot index; the counter read at predict time
   rides in the metadata and is the value trained at update time. *)
let counter_table ~name ~fetch_width ~counter_bits ~index =
  let meta_bits = fetch_width * counter_bits in
  let predict st ctx ~pred_in =
    let base = one_pred_in name pred_in in
    let pred = Array.make fetch_width Types.empty_opinion in
    let fields = ref [] in
    for slot = 0 to fetch_width - 1 do
      let c = tget st (index ctx ~slot) in
      fields := (c, counter_bits) :: !fields;
      if not (Types.unconditional_in base slot) then
        pred.(slot) <-
          { Types.empty_opinion with
            o_taken = Some (Counter.is_taken ~bits:counter_bits c) }
    done;
    (pred, Bitpack.pack ~width:meta_bits (List.rev !fields))
  in
  let update st (ev : Component.event) =
    fold_meta_slots ev ~slot_layout:[ counter_bits ] ~fw:fetch_width
      (fun st ~slot group ->
        let c = List.hd group in
        let (r : Types.resolved) = ev.slots.(slot) in
        if Types.cond_branch r then
          tset st (index ev.ctx ~slot)
            (Counter.update ~bits:counter_bits c ~taken:r.r_taken)
        else st)
      st
  in
  {
    name;
    meta_bits;
    arity = 1;
    init = tab (Counter.weakly_not_taken ~bits:counter_bits);
    predict;
    fire = keep;
    mispredict = keep;
    repair = keep;
    update;
    invariant =
      check_cells ~name ~what:"direction counter"
        (fun c -> Counter.is_valid ~bits:counter_bits c);
  }

let hbim (cfg : C.Hbim.config) =
  let index_bits = Bitops.log2_exact cfg.entries in
  let index ctx ~slot = source_index cfg.indexing ctx ~slot ~bits:index_bits in
  P
    {
      model =
        counter_table ~name:cfg.name ~fetch_width:cfg.fetch_width
          ~counter_bits:cfg.counter_bits ~index;
      kind = "HBIM";
      make_real = (fun () -> C.Hbim.make cfg);
      storage_bits = cfg.entries * cfg.counter_bits;
    }

(* --- gtag: partially tagged global-history counter table --------------------- *)

type gtag_entry = { gt_valid : bool; gt_tag : int; gt_ctr : int }

let gtag (cfg : C.Gtag.config) =
  let cb = cfg.counter_bits in
  let index_bits = Bitops.log2_exact cfg.entries in
  let index (ctx : Context.t) ~slot =
    let pc = Context.slot_pc ctx slot in
    Hashing.combine ~bits:index_bits
      [
        Hashing.pc_index ~pc ~bits:index_bits;
        Hashing.folded_history ctx.ghist ~len:cfg.history_length ~bits:index_bits;
      ]
  in
  let tag (ctx : Context.t) ~slot =
    let pc = Context.slot_pc ctx slot in
    Hashing.fold_int
      (Hashing.mix2 (Hashing.pc_bits pc)
         (Hashing.folded_history ctx.ghist ~len:cfg.history_length ~bits:cfg.tag_bits))
      ~width:62 ~bits:cfg.tag_bits
  in
  let meta_bits = cfg.fetch_width * (1 + cb) in
  let predict st ctx ~pred_in =
    let base = one_pred_in cfg.name pred_in in
    let fields = ref [] in
    let pred =
      Array.init cfg.fetch_width (fun slot ->
          let e = tget st (index ctx ~slot) in
          if (not (Types.unconditional_in base slot)) && e.gt_valid && e.gt_tag = tag ctx ~slot
          then begin
            fields := (e.gt_ctr, cb) :: (1, 1) :: !fields;
            { Types.empty_opinion with o_taken = Some (Counter.is_taken ~bits:cb e.gt_ctr) }
          end
          else begin
            fields := (0, cb) :: (0, 1) :: !fields;
            Types.empty_opinion
          end)
    in
    (pred, Bitpack.pack ~width:meta_bits (List.rev !fields))
  in
  let update st (ev : Component.event) =
    fold_meta_slots ev ~slot_layout:[ 1; cb ] ~fw:cfg.fetch_width
      (fun st ~slot group ->
        match group with
        | [ hit; ctr ] ->
          let (r : Types.resolved) = ev.slots.(slot) in
          if Types.cond_branch r then begin
            let idx = index ev.ctx ~slot in
            let e = tget st idx in
            if hit = 1 then
              tset st idx { e with gt_ctr = Counter.update ~bits:cb ctr ~taken:r.r_taken }
            else
              tset st idx
                {
                  gt_valid = true;
                  gt_tag = tag ev.ctx ~slot;
                  gt_ctr =
                    (if r.r_taken then Counter.weakly_taken ~bits:cb
                     else Counter.weakly_not_taken ~bits:cb);
                }
          end
          else st
        | _ -> assert false)
      st
  in
  P
    {
      model =
        {
          name = cfg.name;
          meta_bits;
          arity = 1;
          init = tab { gt_valid = false; gt_tag = 0; gt_ctr = 0 };
          predict;
          fire = keep;
          mispredict = keep;
          repair = keep;
          update;
          invariant =
            check_cells ~name:cfg.name ~what:"tagged entry"
              (fun e ->
                Counter.is_valid ~bits:cb e.gt_ctr
                && e.gt_tag >= 0
                && e.gt_tag < 1 lsl cfg.tag_bits);
        };
      kind = "GTAG";
      make_real = (fun () -> C.Gtag.make cfg);
      storage_bits = cfg.entries * (1 + cfg.tag_bits + cb);
    }

(* --- gehl: geometric-history signed voting tables ---------------------------- *)

(* Bank [t]'s counters live at key [(t lsl 22) lor idx]. Metadata carries the
   per-slot counters in ascending table order (bank 0 first). *)
let gehl (cfg : C.Gehl.config) =
  let ntables = List.length cfg.history_lengths in
  let lengths = Array.of_list cfg.history_lengths in
  let cb = cfg.counter_bits in
  let bias = 1 lsl cb in
  let index (ctx : Context.t) ~slot ~table =
    let pc_part = Hashing.pc_index ~pc:(Context.slot_pc ctx slot) ~bits:cfg.table_bits in
    if lengths.(table) = 0 then pc_part
    else
      pc_part
      lxor Hashing.folded_history ctx.ghist ~len:lengths.(table) ~bits:cfg.table_bits
      lxor Hashing.fold_int (Hashing.mix2 table 41) ~width:62 ~bits:cfg.table_bits
  in
  let key ~table idx = (table lsl 22) lor idx in
  let meta_bits = cfg.fetch_width * ntables * (cb + 1) in
  let predict st ctx ~pred_in =
    let base = one_pred_in cfg.name pred_in in
    let fields = ref [] in
    let pred =
      Array.init cfg.fetch_width (fun slot ->
          let sum = ref 0 in
          for t = 0 to ntables - 1 do
            let c = tget st (key ~table:t (index ctx ~slot ~table:t)) in
            sum := !sum + c;
            fields := (c + bias, cb + 1) :: !fields
          done;
          if Types.unconditional_in base slot then Types.empty_opinion
          else { Types.empty_opinion with o_taken = Some (!sum >= 0) })
    in
    (pred, Bitpack.pack ~width:meta_bits (List.rev !fields))
  in
  let update st (ev : Component.event) =
    fold_meta_slots ev ~slot_layout:(List.init ntables (fun _ -> cb + 1)) ~fw:cfg.fetch_width
      (fun st ~slot group ->
        let (r : Types.resolved) = ev.slots.(slot) in
        if Types.cond_branch r then begin
          let counters = List.map (fun c -> c - bias) group in
          let sum = List.fold_left ( + ) 0 counters in
          let predicted = sum >= 0 in
          if predicted <> r.r_taken || abs sum <= cfg.threshold then
            snd
              (List.fold_left
                 (fun (t, st) c ->
                   ( t + 1,
                     tset st
                       (key ~table:t (index ev.ctx ~slot ~table:t))
                       (Counter.update_signed ~bits:cb c ~dir:(if r.r_taken then 1 else -1))
                   ))
                 (0, st) counters)
          else st
        end
        else st)
      st
  in
  P
    {
      model =
        {
          name = cfg.name;
          meta_bits;
          arity = 1;
          init = tab 0;
          predict;
          fire = keep;
          mispredict = keep;
          repair = keep;
          update;
          invariant =
            check_cells ~name:cfg.name ~what:"signed counter"
              (fun c -> c >= Counter.signed_min ~bits:cb && c <= Counter.signed_max ~bits:cb);
        };
      kind = "GEHL";
      make_real = (fun () -> C.Gehl.make cfg);
      storage_bits = ntables * (1 lsl cfg.table_bits) * cb;
    }

(* --- yags: bias choice table + tagged exception caches ------------------------ *)

type yags_entry = { yc_valid : bool; yc_tag : int; yc_ctr : int }
type yags_state = { y_choice : int tab; y_t : yags_entry tab; y_nt : yags_entry tab }

let yags (cfg : C.Yags.config) =
  let cb = cfg.counter_bits in
  let choice_index (ctx : Context.t) ~slot =
    Hashing.pc_index ~pc:(Context.slot_pc ctx slot) ~bits:cfg.choice_bits
  in
  let cache_index (ctx : Context.t) ~slot =
    Hashing.pc_index ~pc:(Context.slot_pc ctx slot) ~bits:cfg.cache_bits
    lxor Hashing.folded_history ctx.ghist ~len:cfg.history_length ~bits:cfg.cache_bits
  in
  let cache_tag (ctx : Context.t) ~slot =
    Hashing.fold_int
      (Hashing.mix2 (Hashing.pc_bits (Context.slot_pc ctx slot)) 11)
      ~width:62 ~bits:cfg.tag_bits
  in
  let meta_bits = cfg.fetch_width * (cb + 1 + cb) in
  let predict st ctx ~pred_in =
    let base = one_pred_in cfg.name pred_in in
    let fields = ref [] in
    let pred =
      Array.init cfg.fetch_width (fun slot ->
          let ch = tget st.y_choice (choice_index ctx ~slot) in
          let bias_taken = Counter.is_taken ~bits:cb ch in
          let cache = if bias_taken then st.y_nt else st.y_t in
          let e = tget cache (cache_index ctx ~slot) in
          let hit = e.yc_valid && e.yc_tag = cache_tag ctx ~slot in
          let taken = if hit then Counter.is_taken ~bits:cb e.yc_ctr else bias_taken in
          fields :=
            ((if hit then e.yc_ctr else 0), cb) :: ((if hit then 1 else 0), 1)
            :: (ch, cb) :: !fields;
          if Types.unconditional_in base slot then Types.empty_opinion
          else { Types.empty_opinion with o_taken = Some taken })
    in
    (pred, Bitpack.pack ~width:meta_bits (List.rev !fields))
  in
  let update st (ev : Component.event) =
    fold_meta_slots ev ~slot_layout:[ cb; 1; cb ] ~fw:cfg.fetch_width
      (fun st ~slot group ->
        match group with
        | [ ch; hit; cached ] ->
          let (r : Types.resolved) = ev.slots.(slot) in
          if Types.cond_branch r then begin
            let bias_taken = Counter.is_taken ~bits:cb ch in
            let ci = cache_index ev.ctx ~slot in
            let set_cache st e =
              if bias_taken then { st with y_nt = tset st.y_nt ci e }
              else { st with y_t = tset st.y_t ci e }
            in
            let cache = if bias_taken then st.y_nt else st.y_t in
            let e = tget cache ci in
            let st =
              if hit = 1 then
                set_cache st { e with yc_ctr = Counter.update ~bits:cb cached ~taken:r.r_taken }
              else if r.r_taken <> bias_taken then
                set_cache st
                  {
                    yc_valid = true;
                    yc_tag = cache_tag ev.ctx ~slot;
                    yc_ctr =
                      (if r.r_taken then Counter.weakly_taken ~bits:cb
                       else Counter.weakly_not_taken ~bits:cb);
                  }
              else st
            in
            let cache_was_right = hit = 1 && Counter.is_taken ~bits:cb cached = r.r_taken in
            if not (cache_was_right && r.r_taken <> bias_taken) then
              { st with
                y_choice =
                  tset st.y_choice (choice_index ev.ctx ~slot)
                    (Counter.update ~bits:cb ch ~taken:r.r_taken) }
            else st
          end
          else st
        | _ -> assert false)
      st
  in
  P
    {
      model =
        {
          name = cfg.name;
          meta_bits;
          arity = 1;
          init =
            {
              y_choice = tab (Counter.weakly_not_taken ~bits:cb);
              y_t = tab { yc_valid = false; yc_tag = 0; yc_ctr = 0 };
              y_nt = tab { yc_valid = false; yc_tag = 0; yc_ctr = 0 };
            };
          predict;
          fire = keep;
          mispredict = keep;
          repair = keep;
          update;
          invariant =
            (fun st ->
              match
                check_cells ~name:cfg.name ~what:"choice counter"
                  (fun c -> Counter.is_valid ~bits:cb c)
                  st.y_choice
              with
              | Error _ as e -> e
              | Ok () ->
                let cache_ok =
                  check_cells ~name:cfg.name ~what:"exception-cache entry"
                    (fun e ->
                      Counter.is_valid ~bits:cb e.yc_ctr
                      && e.yc_tag >= 0
                      && e.yc_tag < 1 lsl cfg.tag_bits)
                in
                (match cache_ok st.y_t with Error _ as e -> e | Ok () -> cache_ok st.y_nt));
        };
      kind = "YAGS";
      make_real = (fun () -> C.Yags.make cfg);
      storage_bits =
        ((1 lsl cfg.choice_bits) * cb)
        + (2 * (1 lsl cfg.cache_bits) * (1 + cfg.tag_bits + cb));
    }

(* --- perceptron --------------------------------------------------------------- *)

let perceptron_sum_bits = 12

let perceptron (cfg : C.Perceptron.config) =
  let n_weights = cfg.history_length + 1 in
  let index (ctx : Context.t) ~slot =
    Hashing.pc_index ~pc:(Context.slot_pc ctx slot) ~bits:cfg.table_bits
  in
  let dot (ctx : Context.t) weights =
    let sum = ref weights.(0) in
    for i = 0 to cfg.history_length - 1 do
      if Bits.get ctx.ghist i then sum := !sum + weights.(i + 1)
      else sum := !sum - weights.(i + 1)
    done;
    !sum
  in
  let threshold = (2 * cfg.history_length) + 14 in
  let meta_bits = cfg.fetch_width * (perceptron_sum_bits + 1) in
  let clamp_sum s = min ((1 lsl perceptron_sum_bits) - 1) (abs s) in
  let predict st ctx ~pred_in =
    let base = one_pred_in cfg.name pred_in in
    let pred = Array.make cfg.fetch_width Types.empty_opinion in
    let fields = ref [] in
    for slot = 0 to cfg.fetch_width - 1 do
      let sum = dot ctx (tget st (index ctx ~slot)) in
      fields := ((if sum >= 0 then 1 else 0), 1) :: (clamp_sum sum, perceptron_sum_bits) :: !fields;
      if not (Types.unconditional_in base slot) then
        pred.(slot) <- { Types.empty_opinion with o_taken = Some (sum >= 0) }
    done;
    (pred, Bitpack.pack ~width:meta_bits (List.rev !fields))
  in
  let update st (ev : Component.event) =
    fold_meta_slots ev ~slot_layout:[ perceptron_sum_bits; 1 ] ~fw:cfg.fetch_width
      (fun st ~slot group ->
        match group with
        | [ mag; sign ] ->
          let (r : Types.resolved) = ev.slots.(slot) in
          if Types.cond_branch r && ((sign = 1) <> r.r_taken || mag <= threshold) then begin
            let idx = index ev.ctx ~slot in
            let w = Array.copy (tget st idx) in
            let dir = if r.r_taken then 1 else -1 in
            w.(0) <- Counter.update_signed ~bits:cfg.weight_bits w.(0) ~dir;
            for i = 0 to cfg.history_length - 1 do
              let agree = Bits.get ev.ctx.ghist i = r.r_taken in
              w.(i + 1) <-
                Counter.update_signed ~bits:cfg.weight_bits w.(i + 1)
                  ~dir:(if agree then 1 else -1)
            done;
            tset st idx w
          end
          else st
        | _ -> assert false)
      st
  in
  P
    {
      model =
        {
          name = cfg.name;
          meta_bits;
          arity = 1;
          init = tab (Array.make n_weights 0);
          predict;
          fire = keep;
          mispredict = keep;
          repair = keep;
          update;
          invariant =
            check_cells ~name:cfg.name ~what:"weight vector"
              (fun w ->
                Array.length w = n_weights
                && Array.for_all
                     (fun v ->
                       v >= Counter.signed_min ~bits:cfg.weight_bits
                       && v <= Counter.signed_max ~bits:cfg.weight_bits)
                     w);
        };
      kind = "PERCEPTRON";
      make_real = (fun () -> C.Perceptron.make cfg);
      storage_bits = (1 lsl cfg.table_bits) * n_weights * cfg.weight_bits;
    }

(* --- tournament selector ------------------------------------------------------- *)

let tourney (cfg : C.Tourney.config) =
  let cb = cfg.counter_bits in
  let index_bits = Bitops.log2_exact cfg.entries in
  let index (ctx : Context.t) ~slot =
    Hashing.pc_index ~pc:(Context.slot_pc ctx slot) ~bits:index_bits
    lxor Hashing.folded_history ctx.ghist ~len:cfg.history_length ~bits:index_bits
  in
  let meta_bits = cfg.fetch_width * (4 + cb) in
  let predict st ctx ~pred_in =
    let p0, p1 =
      match pred_in with
      | [ a; b ] -> (a, b)
      | l ->
        invalid_arg
          (Printf.sprintf "%s (golden): selector needs 2 predict_in, got %d" cfg.name
             (List.length l))
    in
    let pred = Array.make cfg.fetch_width Types.empty_opinion in
    let fields = ref [] in
    for slot = 0 to cfg.fetch_width - 1 do
      let d0 = p0.(slot).Types.o_taken and d1 = p1.(slot).Types.o_taken in
      let ctr = tget st (index ctx ~slot) in
      fields :=
        (ctr, cb) :: (obit d1, 1) :: (ovalid d1, 1) :: (obit d0, 1) :: (ovalid d0, 1)
        :: !fields;
      let chosen =
        if Counter.is_taken ~bits:cb ctr then
          match d1 with Some _ -> d1 | None -> d0
        else match d0 with Some _ -> d0 | None -> d1
      in
      match chosen with
      | Some taken when not (Types.unconditional_in p0 slot) ->
        pred.(slot) <- { Types.empty_opinion with o_taken = Some taken }
      | Some _ | None -> ()
    done;
    (pred, Bitpack.pack ~width:meta_bits (List.rev !fields))
  in
  let update st (ev : Component.event) =
    fold_meta_slots ev ~slot_layout:[ 1; 1; 1; 1; cb ] ~fw:cfg.fetch_width
      (fun st ~slot group ->
        match group with
        | [ v0; b0; v1; b1; ctr ] ->
          let (r : Types.resolved) = ev.slots.(slot) in
          if Types.cond_branch r && v0 = 1 && v1 = 1 && b0 <> b1 then begin
            let actual = if r.r_taken then 1 else 0 in
            tset st (index ev.ctx ~slot)
              (Counter.update ~bits:cb ctr ~taken:(b1 = actual))
          end
          else st
        | _ -> assert false)
      st
  in
  P
    {
      model =
        {
          name = cfg.name;
          meta_bits;
          arity = 2;
          init = tab (Counter.weakly_not_taken ~bits:cb);
          predict;
          fire = keep;
          mispredict = keep;
          repair = keep;
          update;
          invariant =
            check_cells ~name:cfg.name ~what:"chooser counter"
              (fun c -> Counter.is_valid ~bits:cb c);
        };
      kind = "TOURNEY";
      make_real = (fun () -> C.Tourney.make cfg);
      storage_bits = cfg.entries * cb;
    }

(* --- statistical corrector ----------------------------------------------------- *)

let statistical_corrector (cfg : C.Statistical_corrector.config) =
  let cb = cfg.counter_bits in
  let bias = 1 lsl cb in
  let index (ctx : Context.t) ~slot ~incoming =
    Hashing.combine ~bits:cfg.index_bits
      [
        Hashing.pc_index ~pc:(Context.slot_pc ctx slot) ~bits:cfg.index_bits;
        Hashing.folded_history ctx.ghist ~len:cfg.history_length ~bits:cfg.index_bits;
        (if incoming then 1 else 0);
      ]
  in
  let meta_bits = cfg.fetch_width * (1 + 1 + cb + 1) in
  let predict st ctx ~pred_in =
    let base = one_pred_in cfg.name pred_in in
    let fields = ref [] in
    let pred =
      Array.init cfg.fetch_width (fun slot ->
          match base.(slot).Types.o_taken with
          | None ->
            fields := (bias, cb + 1) :: (0, 1) :: (0, 1) :: !fields;
            Types.empty_opinion
          | Some incoming ->
            let c = tget st (index ctx ~slot ~incoming) in
            fields :=
              (c + bias, cb + 1) :: ((if incoming then 1 else 0), 1) :: (1, 1) :: !fields;
            if -c > cfg.threshold then
              { Types.empty_opinion with o_taken = Some (not incoming) }
            else Types.empty_opinion)
    in
    (pred, Bitpack.pack ~width:meta_bits (List.rev !fields))
  in
  let update st (ev : Component.event) =
    fold_meta_slots ev ~slot_layout:[ 1; 1; cb + 1 ] ~fw:cfg.fetch_width
      (fun st ~slot group ->
        match group with
        | [ valid; inc; biased ] ->
          let (r : Types.resolved) = ev.slots.(slot) in
          if valid = 1 && Types.cond_branch r then begin
            let incoming = inc = 1 in
            let c = biased - bias in
            let dir = if incoming = r.r_taken then 1 else -1 in
            tset st (index ev.ctx ~slot ~incoming)
              (Counter.update_signed ~bits:(cb + 1) c ~dir)
          end
          else st
        | _ -> assert false)
      st
  in
  P
    {
      model =
        {
          name = cfg.name;
          meta_bits;
          arity = 1;
          init = tab 0;
          predict;
          fire = keep;
          mispredict = keep;
          repair = keep;
          update;
          invariant =
            check_cells ~name:cfg.name ~what:"agreement counter"
              (fun c ->
                c >= Counter.signed_min ~bits:(cb + 1) && c <= Counter.signed_max ~bits:(cb + 1));
        };
      kind = "SC";
      make_real = (fun () -> C.Statistical_corrector.make cfg);
      storage_bits = (1 lsl cfg.index_bits) * (cb + 1);
    }

(* --- TAGE ---------------------------------------------------------------------- *)

type tage_entry = { tg_valid : bool; tg_tag : int; tg_ctr : int; tg_u : int }

type tage_state = {
  tg_banks : tage_entry tab;  (** keyed [(table lsl 22) lor index] *)
  tg_rng : Rng.t;  (** never mutated in place: updates advance a copy *)
  tg_count : int;
}

let tage (cfg : C.Tage.config) =
  let ntables = List.length cfg.tables in
  let specs = Array.of_list cfg.tables in
  let cb = cfg.counter_bits in
  let ub = cfg.u_bits in
  let key ~table idx = (table lsl 22) lor idx in
  let index (ctx : Context.t) ~slot ~table =
    let s = specs.(table) in
    Hashing.pc_index ~pc:(Context.slot_pc ctx slot) ~bits:s.C.Tage.index_bits
    lxor Hashing.folded_history ctx.ghist ~len:s.C.Tage.history_length ~bits:s.C.Tage.index_bits
    lxor Hashing.fold_int (Hashing.mix2 table 17) ~width:62 ~bits:s.C.Tage.index_bits
  in
  let tag_hash (ctx : Context.t) ~slot ~table =
    let s = specs.(table) in
    Hashing.fold_int
      (Hashing.mix2
         (Hashing.pc_bits (Context.slot_pc ctx slot))
         (Hashing.folded_history ctx.ghist ~len:s.C.Tage.history_length ~bits:s.C.Tage.tag_bits
         + (table * 7919)))
      ~width:62 ~bits:s.C.Tage.tag_bits
  in
  let lookup st ctx ~slot ~table =
    let e = tget st.tg_banks (key ~table (index ctx ~slot ~table)) in
    if e.tg_valid && e.tg_tag = tag_hash ctx ~slot ~table then Some e else None
  in
  (* Longest-history hit and the hit just below it. *)
  let find_provider st ctx ~slot =
    let rec scan t provider alt =
      if t < 0 then (provider, alt)
      else
        match lookup st ctx ~slot ~table:t with
        | Some e -> (
          match provider with
          | None -> scan (t - 1) (Some (t, e)) alt
          | Some _ -> (provider, Some (t, e)))
        | None -> scan (t - 1) provider alt
    in
    scan (ntables - 1) None None
  in
  let slot_layout = [ 1; 4; cb; 1; 1; ub; 1; 1 ] in
  let meta_bits = cfg.fetch_width * List.fold_left ( + ) 0 slot_layout in
  let taken_of_ctr c = Counter.is_taken ~bits:cb c in
  let predict st ctx ~pred_in =
    let base = one_pred_in cfg.name pred_in in
    let pred = Array.make cfg.fetch_width Types.empty_opinion in
    let fields = ref [] in
    for slot = 0 to cfg.fetch_width - 1 do
      let provider, alt = find_provider st ctx ~slot in
      let base_dir = base.(slot).Types.o_taken in
      (match provider with
      | Some (p, e) ->
        let alt_dir = Option.map (fun (_, a) -> taken_of_ctr a.tg_ctr) alt in
        fields :=
          (obit base_dir, 1) :: (ovalid base_dir, 1) :: (e.tg_u, ub) :: (obit alt_dir, 1)
          :: (ovalid alt_dir, 1) :: (e.tg_ctr, cb) :: (p, 4) :: (1, 1) :: !fields;
        if not (Types.unconditional_in base slot) then
          pred.(slot) <- { Types.empty_opinion with o_taken = Some (taken_of_ctr e.tg_ctr) }
      | None ->
        fields :=
          (obit base_dir, 1) :: (ovalid base_dir, 1) :: (0, ub) :: (0, 1) :: (0, 1)
          :: (0, cb) :: (0, 4) :: (0, 1) :: !fields)
    done;
    (pred, Bitpack.pack ~width:meta_bits (List.rev !fields))
  in
  let set_bank st k e = { st with tg_banks = tset st.tg_banks k e } in
  let allocate st rng (ev : Component.event) ~slot ~above ~taken =
    let entry_at t = tget st.tg_banks (key ~table:t (index ev.ctx ~slot ~table:t)) in
    let candidates =
      List.filter
        (fun t ->
          let e = entry_at t in
          (not e.tg_valid) || e.tg_u = 0)
        (List.init (ntables - above) (fun i -> above + i))
    in
    match candidates with
    | [] ->
      (* every candidate is useful: age the whole range instead *)
      List.fold_left
        (fun st t ->
          let e = entry_at t in
          set_bank st (key ~table:t (index ev.ctx ~slot ~table:t))
            { e with tg_u = max 0 (e.tg_u - 1) })
        st
        (List.init (ntables - above) (fun i -> above + i))
    | first :: rest ->
      let chosen =
        match rest with next :: _ when Rng.chance rng 0.33 -> next | _ -> first
      in
      set_bank st
        (key ~table:chosen (index ev.ctx ~slot ~table:chosen))
        {
          tg_valid = true;
          tg_tag = tag_hash ev.ctx ~slot ~table:chosen;
          tg_ctr =
            (if taken then Counter.weakly_taken ~bits:cb
             else Counter.weakly_not_taken ~bits:cb);
          tg_u = 0;
        }
  in
  let update st (ev : Component.event) =
    let rng = Rng.copy st.tg_rng in
    let st =
      fold_meta_slots ev ~slot_layout ~fw:cfg.fetch_width
        (fun st ~slot group ->
          match group with
          | [ hit; provider; pctr; alt_valid; alt_dir; pu; base_valid; base_dir ] ->
            let (r : Types.resolved) = ev.slots.(slot) in
            if Types.cond_branch r then begin
              let st = { st with tg_count = st.tg_count + 1 } in
              let st =
                if st.tg_count mod cfg.u_reset_period = 0 then
                  { st with tg_banks = tmap (fun e -> { e with tg_u = e.tg_u lsr 1 }) st.tg_banks }
                else st
              in
              let taken = r.r_taken in
              let provider_pred = if hit = 1 then Some (taken_of_ctr pctr) else None in
              let effective =
                match provider_pred with
                | Some d -> Some d
                | None -> if base_valid = 1 then Some (base_dir = 1) else None
              in
              let st =
                match provider_pred with
                | Some pdir ->
                  let k = key ~table:provider (index ev.ctx ~slot ~table:provider) in
                  let e = tget st.tg_banks k in
                  if e.tg_valid && e.tg_tag = tag_hash ev.ctx ~slot ~table:provider then begin
                    let e = { e with tg_ctr = Counter.update ~bits:cb pctr ~taken } in
                    let altpred =
                      if alt_valid = 1 then Some (alt_dir = 1)
                      else if base_valid = 1 then Some (base_dir = 1)
                      else None
                    in
                    let e =
                      match altpred with
                      | Some a when a <> pdir ->
                        { e with
                          tg_u =
                            (if pdir = taken then min (Counter.max_value ~bits:ub) (pu + 1)
                             else max 0 (pu - 1)) }
                      | _ -> e
                    in
                    set_bank st k e
                  end
                  else st
                | None -> st
              in
              let wrong = match effective with Some d -> d <> taken | None -> true in
              let can_extend = hit = 0 || provider < ntables - 1 in
              if wrong && can_extend then
                allocate st rng ev ~slot ~above:(if hit = 1 then provider + 1 else 0) ~taken
              else st
            end
            else st
          | _ -> assert false)
        st
    in
    { st with tg_rng = rng }
  in
  P
    {
      model =
        {
          name = cfg.name;
          meta_bits;
          arity = 1;
          init =
            {
              tg_banks = tab { tg_valid = false; tg_tag = 0; tg_ctr = 0; tg_u = 0 };
              tg_rng = Rng.create ~seed:cfg.seed;
              tg_count = 0;
            };
          predict;
          fire = keep;
          mispredict = keep;
          repair = keep;
          update;
          invariant =
            (fun st ->
              if st.tg_count < 0 then errf "%s (golden): negative update count" cfg.name
              else
                check_cells ~name:cfg.name ~what:"tagged entry"
                  (fun e ->
                    Counter.is_valid ~bits:cb e.tg_ctr
                    && e.tg_u >= 0
                    && e.tg_u <= Counter.max_value ~bits:ub)
                  st.tg_banks);
        };
      kind = "TAGE";
      make_real = (fun () -> C.Tage.make cfg);
      storage_bits =
        List.fold_left
          (fun acc (t : C.Tage.table_spec) ->
            acc + ((1 lsl t.index_bits) * (1 + t.tag_bits + cb + ub)))
          0 cfg.tables;
    }

(* --- ITTAGE -------------------------------------------------------------------- *)

type ittage_entry = { it_valid : bool; it_tag : int; it_target : int; it_conf : int }

let ittage_target_bits = 48

let ittage (cfg : C.Ittage.config) =
  let ntables = List.length cfg.tables in
  let specs = Array.of_list cfg.tables in
  let key ~table idx = (table lsl 22) lor idx in
  let history (ctx : Context.t) = if cfg.use_path_history then ctx.phist else ctx.ghist in
  let index (ctx : Context.t) ~slot ~table =
    let s = specs.(table) in
    Hashing.pc_index ~pc:(Context.slot_pc ctx slot) ~bits:s.C.Ittage.index_bits
    lxor Hashing.folded_history (history ctx) ~len:s.C.Ittage.history_length
           ~bits:s.C.Ittage.index_bits
    lxor Hashing.fold_int (Hashing.mix2 table 29) ~width:62 ~bits:s.C.Ittage.index_bits
  in
  let tag_hash (ctx : Context.t) ~slot ~table =
    let s = specs.(table) in
    Hashing.fold_int
      (Hashing.mix2
         (Hashing.pc_bits (Context.slot_pc ctx slot))
         (Hashing.folded_history (history ctx) ~len:s.C.Ittage.history_length
            ~bits:s.C.Ittage.tag_bits
         + (table * 131)))
      ~width:62 ~bits:s.C.Ittage.tag_bits
  in
  let lookup st ctx ~slot ~table =
    let e = tget st (key ~table (index ctx ~slot ~table)) in
    if e.it_valid && e.it_tag = tag_hash ctx ~slot ~table then Some e else None
  in
  let find_provider st ctx ~slot =
    let rec scan t =
      if t < 0 then None
      else match lookup st ctx ~slot ~table:t with Some e -> Some (t, e) | None -> scan (t - 1)
    in
    scan (ntables - 1)
  in
  let meta_bits = cfg.fetch_width * 4 in
  let predict st ctx ~pred_in:_ =
    let fields = ref [] in
    let pred =
      Array.init cfg.fetch_width (fun slot ->
          match find_provider st ctx ~slot with
          | Some (t, e) ->
            fields := (t, 3) :: (1, 1) :: !fields;
            {
              Types.o_branch = Some true;
              o_kind = Some Types.Ind;
              o_taken = Some true;
              o_target = Some e.it_target;
            }
          | None ->
            fields := (0, 3) :: (0, 1) :: !fields;
            Types.empty_opinion)
    in
    (pred, Bitpack.pack ~width:meta_bits (List.rev !fields))
  in
  let update st (ev : Component.event) =
    fold_meta_slots ev ~slot_layout:[ 1; 3 ] ~fw:cfg.fetch_width
      (fun st ~slot group ->
        match group with
        | [ hit; provider ] ->
          let (r : Types.resolved) = ev.slots.(slot) in
          if r.r_is_branch && r.r_kind = Types.Ind && r.r_taken then begin
            let correct = ref false in
            let st =
              if hit = 1 then begin
                match lookup st ev.ctx ~slot ~table:provider with
                | Some e ->
                  let k = key ~table:provider (index ev.ctx ~slot ~table:provider) in
                  if e.it_target = r.r_target then begin
                    correct := true;
                    tset st k
                      { e with it_conf = Counter.increment ~bits:cfg.confidence_bits e.it_conf }
                  end
                  else if e.it_conf > 0 then tset st k { e with it_conf = e.it_conf - 1 }
                  else tset st k { e with it_target = r.r_target }
                | None -> st
              end
              else st
            in
            if !correct then st
            else begin
              let above = if hit = 1 then provider + 1 else 0 in
              let rec alloc st t =
                if t >= ntables then st
                else begin
                  let k = key ~table:t (index ev.ctx ~slot ~table:t) in
                  let e = tget st k in
                  if (not e.it_valid) || e.it_conf = 0 then
                    tset st k
                      {
                        it_valid = true;
                        it_tag = tag_hash ev.ctx ~slot ~table:t;
                        it_target = r.r_target;
                        it_conf = 0;
                      }
                  else alloc (tset st k { e with it_conf = e.it_conf - 1 }) (t + 1)
                end
              in
              alloc st above
            end
          end
          else st
        | _ -> assert false)
      st
  in
  P
    {
      model =
        {
          name = cfg.name;
          meta_bits;
          arity = 0;
          init = tab { it_valid = false; it_tag = 0; it_target = 0; it_conf = 0 };
          predict;
          fire = keep;
          mispredict = keep;
          repair = keep;
          update;
          invariant =
            check_cells ~name:cfg.name ~what:"target entry"
              (fun e ->
                e.it_conf >= 0
                && e.it_conf <= Counter.max_value ~bits:cfg.confidence_bits
                && e.it_target >= 0);
        };
      kind = "ITTAGE";
      make_real = (fun () -> C.Ittage.make cfg);
      storage_bits =
        List.fold_left
          (fun acc (s : C.Ittage.table_spec) ->
            acc
            + ((1 lsl s.index_bits)
              * (1 + s.tag_bits + ittage_target_bits + cfg.confidence_bits)))
          0 cfg.tables;
    }

(* --- loop predictor: the only component with all five event handlers ---------- *)

type loop_entry = {
  lp_valid : bool;
  lp_tag : int;
  lp_p : int;  (** learned trip count *)
  lp_c : int;  (** speculative iterations *)
  lp_conf : int;
  lp_dir : bool;
}

let loop_pred (cfg : C.Loop_pred.config) =
  let index_bits = Bitops.log2_exact cfg.entries in
  let index pc = Hashing.pc_index ~pc ~bits:index_bits in
  let tag_of pc =
    Hashing.fold_int (Hashing.mix2 (Hashing.pc_bits pc) 3) ~width:62 ~bits:cfg.tag_bits
  in
  let lookup st pc =
    let e = tget st (index pc) in
    if e.lp_valid && e.lp_tag = tag_of pc then Some e else None
  in
  let count_max = (1 lsl cfg.count_bits) - 1 in
  let conf_max = (1 lsl cfg.conf_bits) - 1 in
  let slot_layout = [ 1; cfg.count_bits; 1; 1 ] in
  let meta_bits = cfg.fetch_width * (1 + cfg.count_bits + 2) in
  let predict st ctx ~pred_in:_ =
    let pred = Array.make cfg.fetch_width Types.empty_opinion in
    let fields = ref [] in
    for slot = 0 to cfg.fetch_width - 1 do
      let hit, c, pv, pd =
        match lookup st (Context.slot_pc ctx slot) with
        | Some e ->
          if e.lp_conf >= cfg.conf_threshold && e.lp_p > 0 then begin
            let taken = if e.lp_c >= e.lp_p then not e.lp_dir else e.lp_dir in
            pred.(slot) <- { Types.empty_opinion with o_taken = Some taken };
            (1, e.lp_c, 1, if taken then 1 else 0)
          end
          else (1, e.lp_c, 0, 0)
        | None -> (0, 0, 0, 0)
      in
      fields := (pd, 1) :: (pv, 1) :: (c, cfg.count_bits) :: (hit, 1) :: !fields
    done;
    (pred, Bitpack.pack ~width:meta_bits (List.rev !fields))
  in
  let decode ev =
    let m_hit = Array.make cfg.fetch_width false in
    let m_count = Array.make cfg.fetch_width 0 in
    let _ =
      fold_meta_slots ev ~slot_layout ~fw:cfg.fetch_width
        (fun () ~slot group ->
          match group with
          | [ hit; c; _pv; _pd ] ->
            m_hit.(slot) <- hit = 1;
            m_count.(slot) <- c
          | _ -> assert false)
        ()
    in
    (m_hit, m_count)
  in
  (* Speculative per-slot iteration counting when the packet proceeds. *)
  let fire st (ev : Component.event) =
    let m_hit, _ = decode ev in
    let step st slot =
      if not m_hit.(slot) then st
      else
        let pc = Context.slot_pc ev.ctx slot in
        match lookup st pc with
        | Some e ->
          let (r : Types.resolved) = ev.slots.(slot) in
          if Types.cond_branch r then
            tset st (index pc)
              (if r.r_taken = e.lp_dir then { e with lp_c = min count_max (e.lp_c + 1) }
               else { e with lp_c = 0 })
          else st
        | None -> st
    in
    List.fold_left step st (List.init cfg.fetch_width Fun.id)
  in
  let restore_slot (ev : Component.event) m_hit m_count st slot =
    if not m_hit.(slot) then st
    else
      let pc = Context.slot_pc ev.ctx slot in
      match lookup st pc with
      | Some e -> tset st (index pc) { e with lp_c = m_count.(slot) }
      | None -> st
  in
  let repair st (ev : Component.event) =
    let m_hit, m_count = decode ev in
    List.fold_left (restore_slot ev m_hit m_count) st (List.init cfg.fetch_width Fun.id)
  in
  let mispredict st (ev : Component.event) =
    match ev.culprit with
    | None -> st
    | Some culprit ->
      let m_hit, m_count = decode ev in
      (* Rewind speculative counts from the culprit onward (youngest slot
         first), then apply the culprit's actual direction. *)
      let st =
        List.fold_left (restore_slot ev m_hit m_count) st
          (List.init (cfg.fetch_width - culprit) (fun i -> cfg.fetch_width - 1 - i))
      in
      let (r : Types.resolved) = ev.slots.(culprit) in
      if not (Types.cond_branch r) then st
      else begin
        let pc = Context.slot_pc ev.ctx culprit in
        match (m_hit.(culprit), lookup st pc) with
        | true, Some e ->
          tset st (index pc)
            (if r.r_taken = e.lp_dir then { e with lp_c = min count_max (m_count.(culprit) + 1) }
             else { e with lp_c = 0 })
        | _ ->
          (* untracked mispredicting conditional: start tracking, assuming
             the misprediction was a loop exit *)
          tset st (index pc)
            {
              lp_valid = true;
              lp_tag = tag_of pc;
              lp_p = 0;
              lp_c = 0;
              lp_conf = 0;
              lp_dir = not r.r_taken;
            }
      end
  in
  let update st (ev : Component.event) =
    let m_hit, m_count = decode ev in
    let step st slot =
      if not m_hit.(slot) then st
      else
        let pc = Context.slot_pc ev.ctx slot in
        match lookup st pc with
        | None -> st
        | Some e ->
          let (r : Types.resolved) = ev.slots.(slot) in
          let c = m_count.(slot) in
          if not (Types.cond_branch r) then st
          else if r.r_taken <> e.lp_dir then begin
            (* committed loop exit after [c] body iterations *)
            if c = 0 then
              tset st (index pc) { e with lp_dir = not e.lp_dir; lp_p = 0; lp_conf = 0 }
            else if c < count_max then begin
              if e.lp_p = c then
                tset st (index pc) { e with lp_conf = min conf_max (e.lp_conf + 1) }
              else
                tset st (index pc)
                  { e with
                    lp_p = c;
                    lp_conf = (if e.lp_conf >= cfg.conf_threshold then 0 else 1) }
            end
            else st
          end
          else if e.lp_p > 0 && c >= e.lp_p then
            tset st (index pc) { e with lp_conf = max 0 (e.lp_conf - 1) }
          else st
    in
    List.fold_left step st (List.init cfg.fetch_width Fun.id)
  in
  P
    {
      model =
        {
          name = cfg.name;
          meta_bits;
          arity = 0;
          init = tab { lp_valid = false; lp_tag = 0; lp_p = 0; lp_c = 0; lp_conf = 0; lp_dir = true };
          predict;
          fire;
          mispredict;
          repair;
          update;
          invariant =
            check_cells ~name:cfg.name ~what:"loop entry"
              (fun e ->
                e.lp_p >= 0 && e.lp_p <= count_max
                && e.lp_c >= 0 && e.lp_c <= count_max
                && e.lp_conf >= 0 && e.lp_conf <= conf_max);
        };
      kind = "LOOP";
      make_real = (fun () -> C.Loop_pred.make cfg);
      storage_bits = cfg.entries * (1 + cfg.tag_bits + (2 * cfg.count_bits) + cfg.conf_bits + 1);
    }

(* --- set-associative BTB -------------------------------------------------------- *)

type btb_entry = { bt_valid : bool; bt_tag : int; bt_target : int; bt_kind : Types.branch_kind }
type btb_state = { bt_ways : btb_entry tab; bt_rr : int tab }

let btb_target_bits = 48

let btb (cfg : C.Btb.config) =
  let set_bits = Bitops.log2_exact cfg.sets in
  let way_bits = max 1 (Bitops.bits_needed cfg.ways) in
  let set_of pc = Hashing.pc_index ~pc ~bits:set_bits in
  let tag_of pc =
    Hashing.fold_int (Hashing.mix2 (Hashing.pc_bits pc) 0) ~width:62 ~bits:cfg.tag_bits
  in
  let key set way = (set * cfg.ways) + way in
  let lookup st pc =
    let set = set_of pc and tag = tag_of pc in
    let rec scan w =
      if w >= cfg.ways then None
      else
        let e = tget st.bt_ways (key set w) in
        if e.bt_valid && e.bt_tag = tag then Some (w, e) else scan (w + 1)
    in
    scan 0
  in
  let meta_bits = cfg.fetch_width * (1 + way_bits) in
  let predict st ctx ~pred_in:_ =
    let pred = Array.make cfg.fetch_width Types.empty_opinion in
    let fields = ref [] in
    for slot = 0 to cfg.fetch_width - 1 do
      let pc = Context.slot_pc ctx slot in
      match lookup st pc with
      | Some (w, e) ->
        fields := (w, way_bits) :: (1, 1) :: !fields;
        pred.(slot) <-
          {
            Types.o_branch = Some true;
            o_kind = Some e.bt_kind;
            o_taken = (if Types.is_unconditional e.bt_kind then Some true else None);
            o_target = Some e.bt_target;
          }
      | None -> fields := (0, way_bits) :: (0, 1) :: !fields
    done;
    (pred, Bitpack.pack ~width:meta_bits (List.rev !fields))
  in
  let update st (ev : Component.event) =
    fold_meta_slots ev ~slot_layout:[ 1; way_bits ] ~fw:cfg.fetch_width
      (fun st ~slot group ->
        match group with
        | [ hit; way ] ->
          let (r : Types.resolved) = ev.slots.(slot) in
          if r.r_is_branch && r.r_taken then begin
            let pc = Context.slot_pc ev.ctx slot in
            let set = set_of pc in
            let w, st =
              if hit = 1 then (way, st)
              else begin
                (* prefer an invalid way, else round-robin replacement *)
                let rec invalid w =
                  if w >= cfg.ways then None
                  else if not (tget st.bt_ways (key set w)).bt_valid then Some w
                  else invalid (w + 1)
                in
                match invalid 0 with
                | Some w -> (w, st)
                | None ->
                  let i = tget st.bt_rr set in
                  (i, { st with bt_rr = tset st.bt_rr set ((i + 1) mod cfg.ways) })
              end
            in
            { st with
              bt_ways =
                tset st.bt_ways (key set w)
                  { bt_valid = true; bt_tag = tag_of pc; bt_target = r.r_target; bt_kind = r.r_kind }
            }
          end
          else st
        | _ -> assert false)
      st
  in
  P
    {
      model =
        {
          name = cfg.name;
          meta_bits;
          arity = 0;
          init =
            {
              bt_ways = tab { bt_valid = false; bt_tag = 0; bt_target = 0; bt_kind = Types.Cond };
              bt_rr = tab 0;
            };
          predict;
          fire = keep;
          mispredict = keep;
          repair = keep;
          update;
          invariant =
            (fun st ->
              match
                check_cells ~name:cfg.name ~what:"btb entry"
                  (fun e -> e.bt_tag >= 0 && e.bt_tag < 1 lsl cfg.tag_bits && e.bt_target >= 0)
                  st.bt_ways
              with
              | Error _ as e -> e
              | Ok () ->
                check_cells ~name:cfg.name ~what:"replacement pointer"
                  (fun i -> i >= 0 && i < cfg.ways)
                  st.bt_rr);
        };
      kind = "BTB";
      make_real = (fun () -> C.Btb.make cfg);
      storage_bits =
        (cfg.sets * cfg.ways * (1 + cfg.tag_bits + btb_target_bits + 3))
        + (cfg.sets * Bitops.bits_needed (max 2 cfg.ways));
    }

(* --- micro-BTB: fully associative, CAM-modelled with a persistent map ----------- *)

type ubtb_entry = {
  ub_valid : bool;
  ub_tag : int;
  ub_target : int;
  ub_kind : Types.branch_kind;
  ub_ctr : int;
}

type ubtb_state = {
  ub_entries : ubtb_entry tab;
  ub_cam : int IMap.t;  (** tag -> entry index, kept in sync as the real CAM is *)
  ub_replace : int;
}

let ubtb_tag_bits = 30
let ubtb_target_bits = 48

let ubtb (cfg : C.Ubtb.config) =
  let cb = cfg.counter_bits in
  let way_bits = max 1 (Bitops.bits_needed cfg.entries) in
  let tag_of pc = Hashing.fold_int (Hashing.pc_bits pc) ~width:62 ~bits:ubtb_tag_bits in
  let lookup st pc =
    match IMap.find_opt (tag_of pc) st.ub_cam with
    | Some i when (tget st.ub_entries i).ub_valid && (tget st.ub_entries i).ub_tag = tag_of pc
      ->
      Some i
    | Some _ | None -> None
  in
  (* Mirrors the real component's [install]: drop the displaced entry's CAM
     binding (whatever it currently points at) before binding the new tag. *)
  let install st i tag =
    let old = tget st.ub_entries i in
    let cam = if old.ub_valid then IMap.remove old.ub_tag st.ub_cam else st.ub_cam in
    { st with ub_cam = IMap.add tag i cam }
  in
  let meta_bits = cfg.fetch_width * (1 + way_bits + cb) in
  let predict st ctx ~pred_in:_ =
    let pred = Array.make cfg.fetch_width Types.empty_opinion in
    let fields = ref [] in
    for slot = 0 to cfg.fetch_width - 1 do
      let pc = Context.slot_pc ctx slot in
      match lookup st pc with
      | Some i ->
        let e = tget st.ub_entries i in
        fields := (e.ub_ctr, cb) :: (i, way_bits) :: (1, 1) :: !fields;
        let taken =
          if Types.is_unconditional e.ub_kind then true else Counter.is_taken ~bits:cb e.ub_ctr
        in
        pred.(slot) <-
          {
            Types.o_branch = Some true;
            o_kind = Some e.ub_kind;
            o_taken = Some taken;
            o_target = Some e.ub_target;
          }
      | None -> fields := (0, cb) :: (0, way_bits) :: (0, 1) :: !fields
    done;
    (pred, Bitpack.pack ~width:meta_bits (List.rev !fields))
  in
  let update st (ev : Component.event) =
    fold_meta_slots ev ~slot_layout:[ 1; way_bits; cb ] ~fw:cfg.fetch_width
      (fun st ~slot group ->
        match group with
        | [ hit; way; ctr ] ->
          let (r : Types.resolved) = ev.slots.(slot) in
          if not r.r_is_branch then st
          else if hit = 1 then begin
            let e = tget st.ub_entries way in
            let pc = Context.slot_pc ev.ctx slot in
            (* the entry may have been replaced since predict *)
            if e.ub_valid && e.ub_tag = tag_of pc then begin
              let e = { e with ub_ctr = Counter.update ~bits:cb ctr ~taken:r.r_taken } in
              let e = if r.r_taken then { e with ub_target = r.r_target } else e in
              { st with ub_entries = tset st.ub_entries way e }
            end
            else st
          end
          else if r.r_taken then begin
            let i = st.ub_replace in
            let st = { st with ub_replace = (i + 1) mod cfg.entries } in
            let tag = tag_of (Context.slot_pc ev.ctx slot) in
            let st = install st i tag in
            { st with
              ub_entries =
                tset st.ub_entries i
                  {
                    ub_valid = true;
                    ub_tag = tag;
                    ub_target = r.r_target;
                    ub_kind = r.r_kind;
                    ub_ctr = Counter.weakly_taken ~bits:cb;
                  }
            }
          end
          else st
        | _ -> assert false)
      st
  in
  P
    {
      model =
        {
          name = cfg.name;
          meta_bits;
          arity = 0;
          init =
            {
              ub_entries =
                tab
                  {
                    ub_valid = false;
                    ub_tag = 0;
                    ub_target = 0;
                    ub_kind = Types.Cond;
                    ub_ctr = Counter.weakly_taken ~bits:cb;
                  };
              ub_cam = IMap.empty;
              ub_replace = 0;
            };
          predict;
          fire = keep;
          mispredict = keep;
          repair = keep;
          update;
          invariant =
            (fun st ->
              if st.ub_replace < 0 || st.ub_replace >= cfg.entries then
                errf "%s (golden): replacement pointer out of range" cfg.name
              else if not (IMap.for_all (fun _ i -> i >= 0 && i < cfg.entries) st.ub_cam) then
                errf "%s (golden): CAM binding out of range" cfg.name
              else
                check_cells ~name:cfg.name ~what:"ubtb entry"
                  (fun e -> Counter.is_valid ~bits:cb e.ub_ctr && e.ub_target >= 0)
                  st.ub_entries);
        };
      kind = "UBTB";
      make_real = (fun () -> C.Ubtb.make cfg);
      storage_bits = cfg.entries * (1 + ubtb_tag_bits + ubtb_target_bits + 3 + cb);
    }

(* --- static predictors ----------------------------------------------------------- *)

let static_always ~name ~taken ~fetch_width =
  P
    {
      model =
        {
          name;
          meta_bits = 0;
          arity = 0;
          init = ();
          predict =
            (fun () _ctx ~pred_in:_ ->
              ( Array.init fetch_width (fun _ ->
                    { Types.empty_opinion with o_taken = Some taken }),
                Bits.zero 0 ));
          fire = keep;
          mispredict = keep;
          repair = keep;
          update = keep;
          invariant = (fun () -> ok);
        };
      kind = "STATIC";
      make_real = (fun () -> C.Static_pred.always ~name ~taken ~fetch_width ());
      storage_bits = 0;
    }

let static_btfn ~name ~fetch_width =
  P
    {
      model =
        {
          name;
          meta_bits = 0;
          arity = 1;
          init = ();
          predict =
            (fun () ctx ~pred_in ->
              let base = one_pred_in name pred_in in
              let pred =
                Array.init fetch_width (fun slot ->
                    match (base.(slot).Types.o_kind, base.(slot).Types.o_target) with
                    | (None | Some Types.Cond), Some target ->
                      { Types.empty_opinion with
                        o_taken = Some (target <= Context.slot_pc ctx slot) }
                    | _ -> Types.empty_opinion)
              in
              (pred, Bits.zero 0));
          fire = keep;
          mispredict = keep;
          repair = keep;
          update = keep;
          invariant = (fun () -> ok);
        };
      kind = "STATIC";
      make_real = (fun () -> C.Static_pred.btfn ~name ~fetch_width ());
      storage_bits = 0;
    }

(* --- instantiation / wrapping ----------------------------------------------------- *)

type inst = {
  i_name : string;
  i_meta_bits : int;
  i_arity : int;
  i_predict : Context.t -> pred_in:Types.prediction list -> Types.prediction * Bits.t;
  i_fire : Component.event -> unit;
  i_mispredict : Component.event -> unit;
  i_repair : Component.event -> unit;
  i_update : Component.event -> unit;
  i_invariant : unit -> (unit, string) result;
  i_snapshot : unit -> unit -> unit;
}

let instantiate (P { model; _ }) =
  let state = ref model.init in
  {
    i_name = model.name;
    i_meta_bits = model.meta_bits;
    i_arity = model.arity;
    i_predict = (fun ctx ~pred_in -> model.predict !state ctx ~pred_in);
    i_fire = (fun ev -> state := model.fire !state ev);
    i_mispredict = (fun ev -> state := model.mispredict !state ev);
    i_repair = (fun ev -> state := model.repair !state ev);
    i_update = (fun ev -> state := model.update !state ev);
    i_invariant = (fun () -> model.invariant !state);
    i_snapshot =
      (fun () ->
        let saved = !state in
        fun () -> state := saved);
  }

(* The model stays pure; the adapter decodes the host's incoming rows for
   it and encodes its fresh (prediction, meta) pair into the host's
   buffers. *)
let to_component (P { model; make_real; _ }) =
  let real = make_real () in
  let name = real.Component.name in
  let state = ref model.init in
  Component.make ~name ~family:real.Component.family
    ~fetch_width:real.Component.fetch_width ~latency:real.Component.latency
    ~meta_bits:real.Component.meta_bits
    ~storage:real.Component.storage
    ~predict:(fun ctx ~pred_in ~out ~meta ->
      let pred_in = Array.to_list (Array.map Row.to_prediction pred_in) in
      let pred, m = model.predict !state ctx ~pred_in in
      if Array.length pred <> Row.width out then
        invalid_arg
          (Printf.sprintf "component %s returned %d opinions for a %d-slot packet" name
             (Array.length pred) (Row.width out));
      Array.iteri (Row.set out) pred;
      Bitpack.store ~owner:name m ~dst:meta)
    ~fire:(fun ev -> state := model.fire !state ev)
    ~mispredict:(fun ev -> state := model.mispredict !state ev)
    ~repair:(fun ev -> state := model.repair !state ev)
    ~update:(fun ev -> state := model.update !state ev)
    ()

(* --- the zoo: small-tabled instances for the lockstep fuzz check ---------------- *)

let zoo () =
  let fw = 4 in
  let tage_spec h = { C.Tage.history_length = h; index_bits = 4; tag_bits = 5 } in
  let ittage_spec h = { C.Ittage.history_length = h; index_bits = 4; tag_bits = 5 } in
  [
    hbim
      {
        (C.Hbim.default ~name:"zGSHARE"
           ~indexing:(C.Indexing.Hash [ C.Indexing.Pc; C.Indexing.Ghist 8 ]))
        with
        entries = 64;
      };
    hbim
      {
        (C.Hbim.default ~name:"zGSELECT"
           ~indexing:(C.Indexing.Concat [ (C.Indexing.Pc, 3); (C.Indexing.Ghist 4, 4) ]))
        with
        entries = 128;
      };
    hbim
      {
        (C.Hbim.default ~name:"zGBIM"
           ~indexing:(C.Indexing.Hash [ C.Indexing.Pc; C.Indexing.Ghist 10 ]))
        with
        entries = 64;
      };
    hbim { (C.Hbim.default ~name:"zLBIM" ~indexing:(C.Indexing.Lhist 8)) with entries = 32 };
    gtag { (C.Gtag.default ~name:"zGTAG") with entries = 64; tag_bits = 5; history_length = 10 };
    gtag { (C.Gtag.default ~name:"zGTAG0") with entries = 32; tag_bits = 6; history_length = 0 };
    gehl
      {
        (C.Gehl.default ~name:"zGEHL") with
        table_bits = 5;
        history_lengths = [ 0; 2; 4; 8 ];
        threshold = 4;
      };
    yags
      {
        (C.Yags.default ~name:"zYAGS") with
        choice_bits = 6;
        cache_bits = 5;
        tag_bits = 6;
        history_length = 8;
      };
    perceptron { (C.Perceptron.default ~name:"zPERC") with table_bits = 4; history_length = 12 };
    tage
      {
        (C.Tage.default ~name:"zTAGE") with
        tables = List.map tage_spec [ 2; 4; 8 ];
        u_reset_period = 128;
      };
    (* mixed widths (one 0-bit tag) over unsorted lengths: the per-table
       fold path *)
    tage
      {
        (C.Tage.default ~name:"zTAGE_MIX") with
        tables =
          [
            { C.Tage.history_length = 9; index_bits = 5; tag_bits = 4 };
            { C.Tage.history_length = 3; index_bits = 3; tag_bits = 0 };
            { C.Tage.history_length = 17; index_bits = 4; tag_bits = 6 };
          ];
        u_reset_period = 128;
      };
    ittage { (C.Ittage.default ~name:"zITTAGE") with tables = List.map ittage_spec [ 2; 6 ] };
    (* path history; tags as wide as the indexes *)
    ittage
      {
        (C.Ittage.default ~name:"zITTAGE_PATH") with
        tables =
          List.map
            (fun h -> { C.Ittage.history_length = h; index_bits = 5; tag_bits = 5 })
            [ 3; 11 ];
        use_path_history = true;
      };
    tourney { (C.Tourney.default ~name:"zTOURNEY") with entries = 64 };
    loop_pred
      {
        (C.Loop_pred.default ~name:"zLOOP") with
        entries = 16;
        tag_bits = 6;
        count_bits = 4;
        conf_bits = 2;
        conf_threshold = 2;
      };
    statistical_corrector
      { (C.Statistical_corrector.default ~name:"zSC") with index_bits = 6; threshold = 8 };
    btb { (C.Btb.default ~name:"zBTB") with sets = 16; ways = 2; tag_bits = 8 };
    ubtb { (C.Ubtb.default ~name:"zUBTB") with entries = 4 };
    static_always ~name:"zALWAYS" ~taken:true ~fetch_width:fw;
    static_btfn ~name:"zBTFN" ~fetch_width:fw;
  ]

(* --- topology composition: the composer's reference ------------------------------ *)

(* The override rule read straight off the topology, as a recursive walk
   over fresh rows: a node's opinions override the composite below it from
   its latency on; an arbitration selector, fed each sub-topology's
   composite at its latency, overrides the first sub-topology's. *)
let compose ~fetch_width topo ~predict =
  let depth = Topology.max_latency topo in
  let at latency (rows : Types.prediction array) = rows.(min latency depth - 1) in
  let overlay (below : Types.prediction array) (c : Component.t) pred =
    Array.mapi
      (fun s row -> if s + 1 < c.latency then row else Types.merge ~strong:pred ~weak:row)
      below
  in
  let rec eval topo below =
    match topo with
    | Topology.Node c -> overlay below c (predict c ~pred_in:[ at c.latency below ])
    | Topology.Override (hi, lo) ->
      let lo = eval lo below in
      eval hi lo
    | Topology.Arbitrate (sel, subs) ->
      let subs = List.map (fun sub -> eval sub below) subs in
      overlay (List.hd subs) sel (predict sel ~pred_in:(List.map (at sel.latency) subs))
  in
  eval topo (Array.init depth (fun _ -> Types.no_prediction ~width:fetch_width))

(* --- twin designs: reference topologies built from golden components ------------- *)

(* The component configurations below are copied from [Designs]; the twin
   must be sized identically or the differential would diverge for sizing
   reasons rather than semantic ones. *)
let twin_design (d : Cobra_eval.Designs.t) =
  let make =
    match d.Cobra_eval.Designs.name with
    | "Tourney" ->
      fun () ->
        let gbim =
          to_component
            (hbim
               {
                 (C.Hbim.default ~name:"GBIM" ~indexing:(C.Indexing.Ghist 14)) with
                 entries = 16384;
               })
        in
        let lbim =
          to_component
            (hbim
               {
                 (C.Hbim.default ~name:"LBIM" ~indexing:(C.Indexing.Lhist 10)) with
                 entries = 4096;
               })
        in
        let btb_c = to_component (btb (C.Btb.default ~name:"BTB")) in
        let sel = to_component (tourney { (C.Tourney.default ~name:"TOURNEY") with entries = 1024 }) in
        Topology.arbitrate sel
          [ Topology.over gbim (Topology.node btb_c); Topology.node lbim ]
    | "B2" ->
      fun () ->
        let gtag_c =
          to_component
            (gtag { (C.Gtag.default ~name:"GTAG") with entries = 2048; history_length = 16 })
        in
        let btb_c = to_component (btb (C.Btb.default ~name:"BTB")) in
        let bim =
          to_component
            (hbim { (C.Hbim.default ~name:"BIM" ~indexing:C.Indexing.Pc) with entries = 16384 })
        in
        Topology.over gtag_c (Topology.over btb_c (Topology.node bim))
    | "TAGE-L" ->
      fun () ->
        let tage_c =
          to_component
            (tage
               {
                 (C.Tage.default ~name:"TAGE") with
                 tables =
                   List.map
                     (fun h -> { C.Tage.history_length = h; index_bits = 11; tag_bits = 9 })
                     [ 4; 6; 10; 16; 26; 42; 64 ];
               })
        in
        let loop = to_component (loop_pred { (C.Loop_pred.default ~name:"LOOP") with entries = 256 }) in
        let btb_c = to_component (btb (C.Btb.default ~name:"BTB")) in
        let bim =
          to_component
            (hbim { (C.Hbim.default ~name:"BIM" ~indexing:C.Indexing.Pc) with entries = 8192 })
        in
        let ubtb_c = to_component (ubtb { (C.Ubtb.default ~name:"UBTB") with entries = 32 }) in
        Topology.over loop
          (Topology.over tage_c
             (Topology.over btb_c (Topology.over bim (Topology.node ubtb_c))))
    | "GShare" ->
      fun () ->
        Topology.node
          (to_component
             (hbim
                {
                  (C.Hbim.default ~name:"GSHARE"
                     ~indexing:(C.Indexing.Hash [ C.Indexing.Pc; C.Indexing.Ghist 12 ]))
                  with
                  entries = 4096;
                }))
    | n -> invalid_arg ("Golden.twin_design: unsupported design " ^ n)
  in
  { d with Cobra_eval.Designs.name = d.Cobra_eval.Designs.name ^ "(golden)"; make }
