type t = {
  program : Program.t;
  regs : int array;
  mem : (int, int) Hashtbl.t;
  mutable pc : int;
  mutable halted : bool;
}

let create program =
  let regs = Array.make 32 0 in
  regs.(Insn.sp) <- 0x8000_0000;
  { program; regs; mem = Hashtbl.create 1024; pc = program.Program.base; halted = false }

let pc t = t.pc
let halted t = t.halted
let reg t r = t.regs.(r)
let poke t ~addr v = Hashtbl.replace t.mem addr v
let peek t ~addr = match Hashtbl.find_opt t.mem addr with Some v -> v | None -> 0

let set_reg t r v = if r <> Insn.zero then t.regs.(r) <- v

let alu op a b =
  let shift_amount = b land 63 in
  match (op : Insn.alu_op) with
  | Add -> a + b
  | Sub -> a - b
  | And -> a land b
  | Or -> a lor b
  | Xor -> a lxor b
  | Sll -> a lsl shift_amount
  | Srl -> a lsr shift_amount
  | Slt -> if a < b then 1 else 0
  | Mul -> a * b
  | Div -> if b = 0 then 0 else a / b
  | Rem -> if b = 0 then 0 else a mod b

let cond_holds c a b =
  match (c : Insn.cond) with Eq -> a = b | Ne -> a <> b | Lt -> a < b | Ge -> a >= b

let step t =
  if t.halted then None
  else begin
    let idx = (t.pc - t.program.Program.base) / 4 in
    if idx < 0 || idx >= Array.length t.program.Program.code then begin
      t.halted <- true;
      None
    end
    else begin
      let insn = t.program.Program.code.(idx) in
      let target = t.program.Program.targets.(idx) in
      let pc = t.pc in
      let srcs = Insn.uses insn in
      let dst = Insn.defines insn in
      let fallthrough = pc + 4 in
      let event =
        match insn with
        | Insn.Halt ->
          t.halted <- true;
          None
        | Insn.Nop ->
          t.pc <- fallthrough;
          Some (Trace.plain ~pc ~cls:Trace.Nop)
        | Insn.Alu (op, rd, rs1, rs2) ->
          set_reg t rd (alu op t.regs.(rs1) t.regs.(rs2));
          t.pc <- fallthrough;
          let cls =
            match op with Insn.Mul -> Trace.Mul | Insn.Div | Insn.Rem -> Trace.Div | _ -> Trace.Alu
          in
          Some { (Trace.plain ~pc ~cls) with srcs; dst }
        | Insn.Alui (op, rd, rs1, imm) ->
          set_reg t rd (alu op t.regs.(rs1) imm);
          t.pc <- fallthrough;
          Some { (Trace.plain ~pc ~cls:Trace.Alu) with srcs; dst }
        | Insn.Li (rd, imm) ->
          set_reg t rd imm;
          t.pc <- fallthrough;
          Some { (Trace.plain ~pc ~cls:Trace.Alu) with dst }
        | Insn.Fma (rd, rs1, rs2) ->
          set_reg t rd ((t.regs.(rs1) * t.regs.(rs2)) + t.regs.(rd));
          t.pc <- fallthrough;
          Some { (Trace.plain ~pc ~cls:Trace.Fp) with srcs = rd :: srcs; dst }
        | Insn.Load (rd, rs1, imm) ->
          let addr = t.regs.(rs1) + imm in
          set_reg t rd (peek t ~addr);
          t.pc <- fallthrough;
          Some { (Trace.plain ~pc ~cls:Trace.Load) with srcs; dst; addr = Some (addr * 4) }
        | Insn.Store (rs2, rs1, imm) ->
          let addr = t.regs.(rs1) + imm in
          poke t ~addr t.regs.(rs2);
          t.pc <- fallthrough;
          Some { (Trace.plain ~pc ~cls:Trace.Store) with srcs; addr = Some (addr * 4) }
        | Insn.Branch (c, rs1, rs2, _) ->
          let taken = cond_holds c t.regs.(rs1) t.regs.(rs2) in
          let next_pc = if taken then target else fallthrough in
          t.pc <- next_pc;
          Some
            {
              (Trace.plain ~pc ~cls:Trace.Alu) with
              srcs;
              branch = Some { Trace.kind = Cobra.Types.Cond; taken; target };
              next_pc;
            }
        | Insn.Jal (rd, _) ->
          set_reg t rd fallthrough;
          t.pc <- target;
          let kind = if rd = Insn.zero then Cobra.Types.Jump else Cobra.Types.Call in
          Some
            {
              (Trace.plain ~pc ~cls:Trace.Alu) with
              dst;
              branch = Some { Trace.kind; taken = true; target };
              next_pc = target;
            }
        | Insn.Jalr (rd, rs1, imm) ->
          let dyn_target = t.regs.(rs1) + imm in
          set_reg t rd fallthrough;
          t.pc <- dyn_target;
          let kind =
            if rd = Insn.zero && rs1 = Insn.ra then Cobra.Types.Ret
            else if rd <> Insn.zero then Cobra.Types.Call
            else Cobra.Types.Ind
          in
          Some
            {
              (Trace.plain ~pc ~cls:Trace.Alu) with
              srcs;
              dst;
              branch = Some { Trace.kind; taken = true; target = dyn_target };
              next_pc = dyn_target;
            }
      in
      event
    end
  end

let stream t () = step t

let static_decode (program : Program.t) ~pc =
  let idx = (pc - program.Program.base) / 4 in
  if pc land 3 <> 0 || idx < 0 || idx >= Array.length program.Program.code then None
  else begin
    let insn = program.Program.code.(idx) in
    let target = program.Program.targets.(idx) in
    let srcs = Insn.uses insn and dst = Insn.defines insn in
    let cls =
      match insn with
      | Insn.Alu (Insn.Mul, _, _, _) -> Trace.Mul
      | Insn.Alu ((Insn.Div | Insn.Rem), _, _, _) -> Trace.Div
      | Insn.Load _ -> Trace.Load
      | Insn.Store _ -> Trace.Store
      | Insn.Fma _ -> Trace.Fp
      | Insn.Nop | Insn.Halt -> Trace.Nop
      | Insn.Alu _ | Insn.Alui _ | Insn.Li _ | Insn.Branch _ | Insn.Jal _ | Insn.Jalr _ ->
        Trace.Alu
    in
    let branch =
      Option.map
        (fun kind ->
          (* direction unknown on the wrong path; indirect targets too *)
          { Trace.kind; taken = Cobra.Types.is_unconditional kind;
            target = (if target >= 0 then target else 0) })
        (Insn.classify_jump insn)
    in
    Some { (Trace.plain ~pc ~cls) with Trace.srcs; dst; branch }
  end

let run t ~max_insns =
  let rec loop acc n =
    if n <= 0 then List.rev acc
    else match step t with None -> List.rev acc | Some e -> loop (e :: acc) (n - 1)
  in
  loop [] max_insns
