module Hashing = Cobra_util.Hashing

type t =
  | Pc
  | Ghist of int
  | Lhist of int
  | Phist of int
  | Hash of t list
  | Concat of (t * int) list

let rec describe = function
  | Pc -> "pc"
  | Ghist n -> Printf.sprintf "ghist[%d]" n
  | Lhist n -> Printf.sprintf "lhist[%d]" n
  | Phist n -> Printf.sprintf "phist[%d]" n
  | Hash srcs -> "hash(" ^ String.concat "^" (List.map describe srcs) ^ ")"
  | Concat parts ->
    "concat("
    ^ String.concat "++" (List.map (fun (s, w) -> Printf.sprintf "%s:%d" (describe s) w) parts)
    ^ ")"

let zero (_ : Cobra.Context.t) ~slot:(_ : int) = 0

(* Staging: the match and the list walks run here, once per table; the
   returned closures only call each other. Every staged source is already
   in [0, 2^bits), so the xor of a [Hash] needs no mask. *)
let rec index src ~bits =
  match src with
  | Concat parts ->
    let width = List.fold_left (fun acc (_, w) -> acc + w) 0 parts in
    if width <> bits then
      invalid_arg
        (Printf.sprintf "%s: concat widths add up to %d, the table index has %d bits"
           (describe src) width bits);
    List.fold_left
      (fun acc (s, w) ->
        let f = index s ~bits:w in
        fun ctx ~slot -> (acc ctx ~slot lsl w) lor f ctx ~slot)
      zero parts
  | _ when bits = 0 -> zero
  | Pc -> fun ctx ~slot -> Hashing.pc_index ~pc:(Cobra.Context.slot_pc ctx slot) ~bits
  | Ghist n -> fun ctx ~slot:_ -> Cobra.Context.folded_ghist ctx ~len:n ~bits
  | Lhist n ->
    fun ctx ~slot -> Hashing.folded_history ctx.Cobra.Context.lhists.(slot) ~len:n ~bits
  | Phist n -> fun ctx ~slot:_ -> Cobra.Context.folded_phist ctx ~len:n ~bits
  | Hash [] -> zero
  | Hash (s :: rest) ->
    List.fold_left
      (fun acc s ->
        let f = index s ~bits in
        fun ctx ~slot -> acc ctx ~slot lxor f ctx ~slot)
      (index s ~bits) rest
