(* The one property runner of tier-1. QCheck generates, checks and shrinks;
   the seed is the kit-wide COBRA_SEED knob, shared with the conformance
   fuzzer and `cobra conform --seed` and read per call, and every property
   starts from a fresh state of it. A failure re-raises with the shrunk
   counterexample and the command that replays it. *)

let check test =
  let seed = Cobra_util.Env.(get seed) in
  try QCheck.Test.check_exn ~rand:(Random.State.make [| seed |]) test
  with (QCheck.Test.Test_fail _ | QCheck.Test.Test_error _) as e ->
    Alcotest.failf "%s\nreplay: COBRA_SEED=%d dune runtest" (Printexc.to_string e) seed

(* A property as an alcotest case under its own name. *)
let test_case (QCheck2.Test.Test cell as test) =
  Alcotest.test_case (QCheck2.Test.get_name cell) `Slow (fun () -> check test)
