open Cobra_isa
open Program

let xorshift ~state ~tmp =
  [
    slli tmp state 13;
    xor state state tmp;
    li tmp 0x3FFFFFFF;
    and_ state state tmp;
    srli tmp state 17;
    xor state state tmp;
    slli tmp state 5;
    xor state state tmp;
    li tmp 0x3FFFFFFF;
    and_ state state tmp;
  ]

let seed_rng ~state seed = [ li state (if seed land 0x3FFFFFFF = 0 then 0x2545F491 else seed land 0x3FFFFFFF) ]

let counted_loop ~counter ~trips ~label:l ~body =
  [ li counter trips; label l ] @ body @ [ addi counter counter (-1); bne counter 0 l ]

let forever ~label:l ~body = (label l :: body) @ [ j l ]

let stream_of_program ?(init = fun _ -> ()) program =
  let machine = Machine.create program in
  init machine;
  Machine.stream machine
