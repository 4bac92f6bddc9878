module Bits = Cobra_util.Bits
module Hashing = Cobra_util.Hashing
module Slab = Cobra_util.Slab
open Cobra

type spec = { history_length : int; index_bits : int; tag_bits : int }
type history = Ghist | Phist

type t = {
  state : Slab.t;
  ntables : int;
  stride : int;
  base : int array;
  lens : int array;
  index_bits : int array;
  tag_bits : int array;
  index_salt : int array;  (* already folded to the table's index width *)
  tag_salt : int array;
  history : history;
  uniform_index : bool;
  uniform_tag : bool;
  tag_is_index : bool;
  by_len : int array;  (* table order sorted by history length *)
  sorted_lens : int array;
  scratch : int array;
  fold_index : int array;
  fold_tag : int array;
  mutable last_ctx : Context.t;
  mutable last_stamp : int;
}

(* Never prepared for: its stamp never equals the -1 a bank starts with. *)
let no_context =
  Context.make ~pc:0 ~fetch_width:1 ~ghist:(Bits.zero 0) ~lhists:[| Bits.zero 0 |] ()

let make ~name ~header ~payload ~index_salt ~tag_salt ~history specs =
  let ntables = Array.length specs in
  if ntables < 1 then invalid_arg (name ^ ": at least one table");
  Array.iteri
    (fun t (s : spec) ->
      let width field v =
        if v < 0 || v > 62 then
          invalid_arg (Printf.sprintf "%s: table %d %s = %d outside [0, 62]" name t field v)
      in
      width "index_bits" s.index_bits;
      width "tag_bits" s.tag_bits;
      if s.history_length < 0 then
        invalid_arg (Printf.sprintf "%s: table %d history_length < 0" name t))
    specs;
  let stride = 2 + payload in
  let base = Array.make ntables 0 in
  let total = ref header in
  Array.iteri
    (fun t (s : spec) ->
      base.(t) <- !total;
      total := !total + ((1 lsl s.index_bits) * stride))
    specs;
  let per f = Array.map f specs in
  let index_bits = per (fun (s : spec) -> s.index_bits) in
  let tag_bits = per (fun (s : spec) -> s.tag_bits) in
  let lens = per (fun (s : spec) -> s.history_length) in
  let uniform a = Array.for_all (fun v -> v = a.(0)) a in
  let by_len = Array.init ntables Fun.id in
  Array.sort (fun a b -> compare lens.(a) lens.(b)) by_len;
  {
    state = Slab.create !total;
    ntables;
    stride;
    base;
    lens;
    index_bits;
    tag_bits;
    index_salt =
      Array.init ntables (fun t ->
          Hashing.fold_int (index_salt t) ~width:62 ~bits:index_bits.(t));
    tag_salt = Array.init ntables tag_salt;
    history;
    uniform_index = uniform index_bits;
    uniform_tag = uniform tag_bits;
    tag_is_index = index_bits = tag_bits;
    by_len;
    sorted_lens = Array.map (fun t -> lens.(t)) by_len;
    scratch = Array.make ntables 0;
    fold_index = Array.make ntables 0;
    fold_tag = Array.make ntables 0;
    last_ctx = no_context;
    last_stamp = -1;
  }

let state b = b.state

(* Every table's fold of [h] to its own width: one batched pass when the
   widths agree (all-zero widths leave [out] at 0), else one walk per
   table. *)
let fold_all b h ~widths ~uniform out =
  if not uniform then
    for t = 0 to b.ntables - 1 do
      out.(t) <- Hashing.folded_history h ~len:b.lens.(t) ~bits:widths.(t)
    done
  else if widths.(0) > 0 then begin
    Bits.fold_xor_sub_multi h ~lens:b.sorted_lens widths.(0) ~out:b.scratch;
    for q = 0 to b.ntables - 1 do
      out.(b.by_len.(q)) <- b.scratch.(q)
    done
  end

let prepare b (ctx : Context.t) =
  if not (b.last_ctx == ctx && b.last_stamp = ctx.stamp) then begin
    b.last_ctx <- ctx;
    b.last_stamp <- ctx.stamp;
    let h = match b.history with Ghist -> ctx.ghist | Phist -> ctx.phist in
    fold_all b h ~widths:b.index_bits ~uniform:b.uniform_index b.fold_index;
    if b.tag_is_index then Array.blit b.fold_index 0 b.fold_tag 0 b.ntables
    else fold_all b h ~widths:b.tag_bits ~uniform:b.uniform_tag b.fold_tag
  end

let pc_fold b ctx ~slot = Hashing.pc_index ~pc:(Context.slot_pc ctx slot) ~bits:b.index_bits.(0)

let entry b ctx ~slot ~pcv ~table =
  let p =
    if b.uniform_index then pcv
    else Hashing.pc_index ~pc:(Context.slot_pc ctx slot) ~bits:b.index_bits.(table)
  in
  b.base.(table) + (b.stride * (p lxor b.fold_index.(table) lxor b.index_salt.(table)))

let tag b ctx ~slot ~table =
  Hashing.fold_int
    (Hashing.mix2
       (Hashing.pc_bits (Context.slot_pc ctx slot))
       (b.fold_tag.(table) + b.tag_salt.(table)))
    ~width:62 ~bits:b.tag_bits.(table)

let valid b e = Slab.unsafe_get b.state e = 1

let lookup b ctx ~slot ~pcv ~table =
  let e = entry b ctx ~slot ~pcv ~table in
  if valid b e && Slab.unsafe_get b.state (e + 1) = tag b ctx ~slot ~table then e else -1

let longest_hit b ctx ~slot ~pcv ~below =
  let t = ref (below - 1) in
  while !t >= 0 && lookup b ctx ~slot ~pcv ~table:!t < 0 do
    decr t
  done;
  !t

let claim b ctx ~slot ~table e =
  Slab.unsafe_set b.state e 1;
  Slab.unsafe_set b.state (e + 1) (tag b ctx ~slot ~table)

let get b e k = Slab.unsafe_get b.state (e + 2 + k)
let set b e k v = Slab.unsafe_set b.state (e + 2 + k) v

let iter_entries b f =
  for t = 0 to b.ntables - 1 do
    for i = 0 to (1 lsl b.index_bits.(t)) - 1 do
      f (b.base.(t) + (b.stride * i))
    done
  done

let sram_bits specs ~payload_bits =
  List.fold_left
    (fun acc (s : spec) -> acc + ((1 lsl s.index_bits) * (1 + s.tag_bits + payload_bits)))
    0 specs
