type t = {
  mutable pc : int;
  mutable stamp : int;
  fetch_width : int;
  mutable live_slots : int;
  ghist : Cobra_util.Bits.t;
  lhists : Cobra_util.Bits.t array;
  phist : Cobra_util.Bits.t;
  (* Folded-history memo: every component folding the same history to the
     same (len, bits) shape gets the predict-time result back, including at
     update/repair time (the context travels with the packet, and its
     histories do not change until the host resets it). Flat parallel
     arrays + linear scan: the population is a handful of distinct shapes
     per design. *)
  mutable memo_keys : int array;
  mutable memo_vals : int array;
  mutable memo_count : int;
}

let slot_pc t i = t.pc + (4 * i)

let make ~pc ~fetch_width ?live_slots ~ghist ~lhists ?(phist = Cobra_util.Bits.zero 0) () =
  if Array.length lhists <> fetch_width then
    invalid_arg "Context.make: lhists length must equal fetch width";
  let live_slots =
    match live_slots with
    | None -> fetch_width
    | Some n ->
      if n < 1 || n > fetch_width then
        invalid_arg "Context.make: live_slots out of range"
      else n
  in
  {
    pc;
    stamp = 0;
    fetch_width;
    live_slots;
    ghist;
    lhists;
    phist;
    memo_keys = [||];
    memo_vals = [||];
    memo_count = 0;
  }

let reset t ~pc =
  t.pc <- pc;
  t.stamp <- t.stamp + 1;
  t.memo_count <- 0

let live_bound t width = if t.live_slots < width then t.live_slots else width

let memo_capacity = 16

let folded t ~src ~history ~len ~bits =
  let key = (src lsl 22) lor (len lsl 6) lor bits in
  let n = t.memo_count in
  let keys = t.memo_keys in
  let hit = ref (-1) in
  let i = ref 0 in
  while !hit < 0 && !i < n do
    if keys.(!i) = key then hit := !i;
    incr i
  done;
  match !hit with
  | i when i >= 0 -> t.memo_vals.(i)
  | _ ->
    let v = Cobra_util.Bits.fold_xor_sub history ~len bits in
    if Array.length t.memo_keys = 0 then begin
      t.memo_keys <- Array.make memo_capacity 0;
      t.memo_vals <- Array.make memo_capacity 0
    end;
    if n < Array.length t.memo_keys then begin
      t.memo_keys.(n) <- key;
      t.memo_vals.(n) <- v;
      t.memo_count <- n + 1
    end;
    v

let folded_ghist t ~len ~bits = folded t ~src:0 ~history:t.ghist ~len ~bits
let folded_phist t ~len ~bits = folded t ~src:1 ~history:t.phist ~len ~bits
