open Cobra

let always ~name ?(latency = 1) ~taken ~fetch_width () =
  Component.make ~name ~family:Component.Static ~fetch_width ~latency ~meta_bits:0
    ~storage:Storage.zero
    ~predict:(fun _ctx ~pred_in:_ ~out ~meta:_ ->
      for slot = 0 to fetch_width - 1 do
        out.(slot) <- Types.direction_hint ~taken
      done)
    ()

let btfn ~name ?(latency = 2) ~fetch_width () =
  Component.make ~name ~family:Component.Static ~fetch_width ~latency ~meta_bits:0
    ~storage:Storage.zero
    ~predict:(fun ctx ~pred_in ~out ~meta:_ ->
      let base =
        match pred_in with
        | [ p ] -> p
        | _ -> invalid_arg (name ^ ": expected exactly one predict_in")
      in
      for slot = 0 to fetch_width - 1 do
        match (base.(slot).Types.o_kind, base.(slot).Types.o_target) with
        | (None | Some Types.Cond), Some target ->
          out.(slot) <- Types.direction_hint ~taken:(target <= Context.slot_pc ctx slot)
        | _ -> ()
      done)
    ()
