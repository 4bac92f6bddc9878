type insn_class = Alu | Mul | Div | Load | Store | Fp | Nop

type branch_info = { kind : Cobra.Types.branch_kind; taken : bool; target : int }

type event = {
  pc : int;
  cls : insn_class;
  addr : int option;
  srcs : int list;
  dst : int option;
  branch : branch_info option;
  next_pc : int;
}

let plain ~pc ~cls =
  { pc; cls; addr = None; srcs = []; dst = None; branch = None; next_pc = pc + 4 }

let branch_exn ?(who = "Trace.branch_exn") ev =
  match ev.branch with
  | Some info -> info
  | None ->
    failwith (Printf.sprintf "%s: event at pc=0x%x carries no branch info" who ev.pc)

let is_short_forward_branch ev =
  match ev.branch with
  | Some { kind = Cobra.Types.Cond; target; _ } -> target > ev.pc && target - ev.pc <= 32
  | Some _ | None -> false

let exec_latency = function
  | Alu -> 1
  | Mul -> 3
  | Div -> 12
  | Load -> 0 (* cache model supplies the latency *)
  | Store -> 1
  | Fp -> 4
  | Nop -> 1

type stream = unit -> event option

module Window = struct
  type t = {
    source : stream;
    mutable ring : event option array;
        (* event [i] sits at [i land (length - 1)], as the source returned
           it, so delivering it again allocates nothing *)
    mutable base : int;
    mutable cursor : int;
    mutable pulled : int;  (* events pulled from the source so far *)
  }

  let create source = { source; ring = Array.make 64 None; base = 0; cursor = 0; pulled = 0 }

  let grow t =
    let cap = Array.length t.ring in
    let ring = Array.make (2 * cap) None in
    for i = t.base to t.pulled - 1 do
      ring.(i land ((2 * cap) - 1)) <- t.ring.(i land (cap - 1))
    done;
    t.ring <- ring

  let peek t =
    if t.cursor < t.pulled then t.ring.(t.cursor land (Array.length t.ring - 1))
    else
      match t.source () with
      | None -> None
      | Some _ as e ->
        if t.pulled - t.base = Array.length t.ring then grow t;
        t.ring.(t.pulled land (Array.length t.ring - 1)) <- e;
        t.pulled <- t.pulled + 1;
        e

  let next t =
    let e = peek t in
    (match e with Some _ -> t.cursor <- t.cursor + 1 | None -> ());
    e

  let position t = t.cursor

  let check who t p =
    if p < t.base || p > t.cursor then
      invalid_arg
        (Printf.sprintf "Trace.Window.%s: position %d outside [%d, %d]" who p t.base t.cursor)

  let rewind t p =
    check "rewind" t p;
    t.cursor <- p

  let release t p =
    check "release" t p;
    t.base <- p
end

let of_list events =
  let remaining = ref events in
  fun () ->
    match !remaining with
    | [] -> None
    | e :: rest ->
      remaining := rest;
      Some e

let take stream n =
  let rec loop acc n =
    if n <= 0 then List.rev acc
    else match stream () with None -> List.rev acc | Some e -> loop (e :: acc) (n - 1)
  in
  loop [] n
