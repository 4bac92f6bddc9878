let width_of layout = List.fold_left ( + ) 0 layout

let pack ~width fields =
  let total = width_of (List.map snd fields) in
  if total <> width then
    invalid_arg (Printf.sprintf "Bitpack.pack: fields cover %d bits, declared %d" total width);
  let check (v, bits) =
    if bits < 0 || bits > 62 then invalid_arg "Bitpack.pack: field width out of [0,62]";
    if v < 0 || (bits < 62 && v >= 1 lsl bits) then
      invalid_arg (Printf.sprintf "Bitpack.pack: value %d does not fit in %d bits" v bits)
  in
  if width <= 62 then begin
    (* fast path: the whole vector fits one int *)
    let acc = ref 0 and pos = ref 0 in
    List.iter
      (fun ((v, bits) as f) ->
        check f;
        acc := !acc lor (v lsl !pos);
        pos := !pos + bits)
      fields;
    Bits.of_int ~width !acc
  end
  else begin
    let bitvals = Array.make width false in
    let pos = ref 0 in
    List.iter
      (fun ((v, bits) as f) ->
        check f;
        for i = 0 to bits - 1 do
          bitvals.(!pos + i) <- (v lsr i) land 1 = 1
        done;
        pos := !pos + bits)
      fields;
    Bits.init width (fun i -> bitvals.(i))
  end

(* --- allocation-free packing ------------------------------------------------- *)

let limb_bits = 62
let limb_mask = (1 lsl limb_bits) - 1

let field v ~bits =
  if bits < 0 || bits > limb_bits then invalid_arg "Bitpack.field: width out of [0,62]";
  if v < 0 || (bits < limb_bits && v >= 1 lsl bits) then
    invalid_arg (Printf.sprintf "Bitpack.field: value %d does not fit in %d bits" v bits);
  v

(* The one diagnostic for a component whose metadata does not match the
   width it declared: the buffer its host lends it is [declared] bits wide. *)
let check_width ~owner ~packed dst =
  if Bits.width dst <> packed then
    invalid_arg
      (Printf.sprintf "component %s returned %d metadata bits, declared %d" owner packed
         (Bits.width dst))

let store ~owner v ~dst =
  check_width ~owner ~packed:(Bits.width v) dst;
  Bits.blit ~src:v ~dst

module Packer = struct
  type t = {
    owner : string;
    width : int;
    nlimbs : int;
    scratch : int array;  (* accumulated in place, copied out by [finish_into] *)
    mutable pos : int;
  }

  let create ~owner ~width =
    if width < 0 then invalid_arg "Bitpack.Packer.create: negative width";
    let nlimbs = (width + limb_bits - 1) / limb_bits in
    { owner; width; nlimbs; scratch = Array.make (max 1 nlimbs) 0; pos = 0 }

  let reset t =
    Array.fill t.scratch 0 (Array.length t.scratch) 0;
    t.pos <- 0

  let advance t bits =
    if t.pos + bits > t.width then
      invalid_arg
        (Printf.sprintf "Bitpack.Packer (%s): fields overflow declared width %d" t.owner
           t.width);
    t.pos <- t.pos + bits

  let add t v ~bits =
    let v = field v ~bits in
    let pos = t.pos in
    advance t bits;
    (* a 0-bit field writes nothing: at pos = width = 62k its limb index
       would be past the end of the scratch array *)
    if bits > 0 then begin
      let j = pos / limb_bits and k = pos mod limb_bits in
      t.scratch.(j) <- t.scratch.(j) lor ((v lsl k) land limb_mask);
      if k + bits > limb_bits then
        t.scratch.(j + 1) <- t.scratch.(j + 1) lor (v lsr (limb_bits - k))
    end

  (* the scratch is zero past [pos] (reset clears it) *)
  let add_zeros t ~bits =
    if bits < 0 then invalid_arg "Bitpack.Packer.add_zeros: negative width";
    advance t bits

  (* A refused seal still resets the packer: the next cycle starts clean. *)
  let finish_into t dst =
    let pos = t.pos in
    if pos <> t.width || Bits.width dst <> t.width then begin
      reset t;
      if pos <> t.width then
        invalid_arg
          (Printf.sprintf "Bitpack.Packer (%s): fields cover %d bits, declared %d" t.owner pos
             t.width);
      check_width ~owner:t.owner ~packed:t.width dst
    end;
    for j = 0 to t.nlimbs - 1 do
      Bits.set_limb dst j t.scratch.(j);
      t.scratch.(j) <- 0
    done;
    t.pos <- 0
end

let unpack bits layout =
  if width_of layout <> Bits.width bits then
    invalid_arg "Bitpack.unpack: layout does not match vector width";
  let pos = ref 0 in
  List.map
    (fun w ->
      let v = Bits.extract_int bits ~lo:!pos ~len:w in
      pos := !pos + w;
      v)
    layout
