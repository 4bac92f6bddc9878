module Trace = Cobra_isa.Trace

let predicated_flag_of ev =
  (* The set-flag micro-op: same operands, no control flow. *)
  { ev with Trace.branch = None; next_pc = ev.Trace.pc + 4 }

let shadow_nops ~flag_srcs ~from_pc ~to_pc =
  let rec loop pc acc =
    if pc >= to_pc then List.rev acc
    else
      let nop =
        { (Trace.plain ~pc ~cls:Trace.Nop) with Trace.srcs = flag_srcs; next_pc = pc + 4 }
      in
      loop (pc + 4) (nop :: acc)
  in
  loop from_pc []

let transform source =
  let queue = ref [] in
  (* While inside a not-taken hammock shadow, executed instructions gain a
     dependency on the flag. *)
  let shadow_end = ref None in
  let shadow_srcs = ref [] in
  let next () =
    match !queue with
    | e :: rest ->
      queue := rest;
      Some e
    | [] -> (
      match source () with
      | None -> None
      | Some ev ->
        let in_shadow =
          match !shadow_end with
          | Some limit when ev.Trace.pc < limit -> true
          | Some _ ->
            shadow_end := None;
            false
          | None -> false
        in
        if Trace.is_short_forward_branch ev then begin
          let info = Trace.branch_exn ~who:"Sfb.transform" ev in
          let flag = predicated_flag_of ev in
          if info.Trace.taken then begin
            (* Skipped shadow slots execute as predicated no-ops. *)
            queue := shadow_nops ~flag_srcs:ev.Trace.srcs ~from_pc:(ev.Trace.pc + 4)
                       ~to_pc:info.Trace.target;
            shadow_end := None
          end
          else begin
            shadow_end := Some info.Trace.target;
            shadow_srcs := ev.Trace.srcs
          end;
          Some flag
        end
        else if in_shadow then
          Some { ev with Trace.srcs = !shadow_srcs @ ev.Trace.srcs }
        else Some ev)
  in
  next

let count_sfbs events = List.length (List.filter Trace.is_short_forward_branch events)
