open Cobra

let always ~name ?(latency = 1) ~taken ~fetch_width () =
  Component.make ~name ~family:Component.Static ~fetch_width ~latency ~meta_bits:0
    ~storage:Storage.zero
    ~predict:(fun _ctx ~pred_in:_ ~out ~meta:_ ->
      for slot = 0 to fetch_width - 1 do
        Row.set_taken out slot taken
      done)
    ()

let btfn ~name ?(latency = 2) ~fetch_width () =
  Component.make ~name ~family:Component.Static ~fetch_width ~latency ~meta_bits:0
    ~storage:Storage.zero
    ~predict:(fun ctx ~pred_in ~out ~meta:_ ->
      if Array.length pred_in <> 1 then invalid_arg (name ^ ": expected exactly one predict_in");
      let base = pred_in.(0) in
      for slot = 0 to fetch_width - 1 do
        if Row.target_known base slot && not (Row.unconditional base slot) then
          Row.set_taken out slot (Row.target base slot <= Context.slot_pc ctx slot)
      done)
    ()
