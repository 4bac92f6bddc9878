type error = {
  job : int;
  attempts : int;
  message : string;
  backtrace : string;
}

let default_jobs () = Cobra_util.Env.(get jobs)

let shielded f = try f () with _ -> ()

let run_one ~attempts ~on_start ~on_retry i thunk =
  shielded (fun () -> on_start i);
  let rec go attempt =
    match thunk () with
    | v -> Ok v
    | exception exn ->
      let backtrace = Printexc.raw_backtrace_to_string (Printexc.get_raw_backtrace ()) in
      if attempt < attempts then begin
        shielded (fun () -> on_retry i ~attempt exn);
        go (attempt + 1)
      end
      else Error { job = i; attempts = attempt; message = Printexc.to_string exn; backtrace }
  in
  go 1

let map ?jobs ?(attempts = 1) ?(on_start = fun _ -> ()) ?(on_retry = fun _ ~attempt:_ _ -> ())
    ?(on_finish = fun _ ~ok:_ -> ()) thunks =
  if attempts < 1 then invalid_arg "Pool.map: attempts must be >= 1";
  if not (Printexc.backtrace_status ()) then Printexc.record_backtrace true;
  let arr = Array.of_list thunks in
  let n = Array.length arr in
  let jobs = max 1 (min (match jobs with Some j -> j | None -> default_jobs ()) n) in
  let results = Array.make n None in
  let finish i r =
    results.(i) <- Some r;
    shielded (fun () -> on_finish i ~ok:(Result.is_ok r))
  in
  if jobs <= 1 then
    for i = 0 to n - 1 do
      finish i (run_one ~attempts ~on_start ~on_retry i arr.(i))
    done
  else begin
    let next = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          finish i (run_one ~attempts ~on_start ~on_retry i arr.(i));
          loop ()
        end
      in
      loop ()
    in
    (* the calling domain is one of the workers *)
    let spawned = List.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join spawned
  end;
  Array.to_list
    (Array.mapi
       (fun i r ->
         match r with
         | Some r -> r
         | None ->
           (* unreachable: every index is claimed exactly once *)
           Error { job = i; attempts = 0; message = "job never ran"; backtrace = "" })
       results)
