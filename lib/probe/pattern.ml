module Rng = Cobra_util.Rng
module Debruijn = Cobra_util.Debruijn
module Btrace = Cobra_trace_replay.Btrace
module Writer = Cobra_trace_replay.Writer

type stream = {
  s_records : Btrace.record array;
  s_warmup : int;
  s_metric_pc : int option;
}

type t = {
  p_name : string;
  p_doc : string;
  p_unit : string;
  p_gen : level:int -> seed:int -> stream;
}

(* Probe PCs live in distinct, recognisable ranges so traces are easy to
   read; every record is a gap-0 conditional branch (pure direction
   stress, one branch per instruction). *)
let ladder_pc = 0x4000
let corr_pc_a = 0x4100
let corr_pc_fill = 0x4200
let corr_pc_b = 0x4300
let loop_pc = 0x4400
let phase_pc = 0x4500
let alias_base = 0x5000
let tag_base = 0x8000

let cond ~pc ~taken = Btrace.cond ~pc ~taken ()

let of_list ~warmup ~metric_pc records =
  { s_records = Array.of_list records; s_warmup = warmup; s_metric_pc = metric_pc }

(* --- history-length ladder ---------------------------------------------------- *)

(* Level k: one branch follows a B(2,k) de Bruijn cycle. Every k-window is
   unique, so a predictor with usable history h predicts perfectly when
   k <= h and is pinned near 50% once k > h: the capacity edge is h + 1.
   The seed rotates the starting phase of the cycle (the language of
   windows is unchanged, so the expected response is seed-invariant). *)
let gen_ladder ~level ~seed =
  if level < 1 || level > 16 then invalid_arg "probe ladder: level (order) in [1,16]";
  let seq = Debruijn.sequence ~order:level in
  let period = Array.length seq in
  let rot = Rng.int (Rng.create ~seed:(seed lxor 0x1adde5)) period in
  let warmup_periods = max 3 ((96 + period - 1) / period) in
  let measure_periods = max 2 ((128 + period - 1) / period) in
  let total = (warmup_periods + measure_periods) * period in
  let records =
    List.init total (fun i -> cond ~pc:ladder_pc ~taken:(Debruijn.bit seq (i + rot)))
  in
  of_list ~warmup:(warmup_periods * period) ~metric_pc:(Some ladder_pc) records

(* --- correlated-pair ladder --------------------------------------------------- *)

(* Level d: per period, branch A goes a random way, d-1 always-taken
   fillers push it down the global history, then branch B repeats A's
   outcome. At B's prediction A sits at history depth exactly d, so an
   ideal predictor with usable history h captures the correlation iff
   d <= h: the edge is h + 1. *)
let gen_corr ~level ~seed =
  if level < 1 then invalid_arg "probe corr: level (distance) >= 1";
  let d = level in
  let rng = Rng.create ~seed:(seed lxor 0xc0bbe1) in
  let period_len = d + 1 in
  let budget = 36_000 in
  let periods = max 80 (min 600 (budget / period_len)) in
  let warmup_periods = periods * 2 / 3 in
  let period () =
    let a = Rng.bool rng in
    (cond ~pc:corr_pc_a ~taken:a
    :: List.init (d - 1) (fun _ -> cond ~pc:corr_pc_fill ~taken:true))
    @ [ cond ~pc:corr_pc_b ~taken:a ]
  in
  let records = List.concat (List.init periods (fun _ -> period ())) in
  of_list ~warmup:(warmup_periods * period_len) ~metric_pc:(Some corr_pc_b) records

(* --- loop-trip-count scan ----------------------------------------------------- *)

(* Level T: one branch behaves as a loop of period T (T-1 taken, then one
   not-taken exit). When predicting the exit the previous not-taken sits at
   history depth exactly T, so a history predictor is exact iff T <= h
   (edge h + 1), while a loop predictor is exact while the trip count
   T - 1 fits its iteration counter (edge 2^count_bits + 1). Deterministic:
   the loop phenomenon is the period itself, not the data. *)
let gen_loop ~level ~seed:_ =
  if level < 2 then invalid_arg "probe loop: level (period) >= 2";
  let t = level in
  let warmup_periods = max 10 ((256 + t - 1) / t) in
  let measure_periods = max 5 ((128 + t - 1) / t) in
  let period = List.init t (fun i -> cond ~pc:loop_pc ~taken:(i < t - 1)) in
  let records = List.concat (List.init (warmup_periods + measure_periods) (fun _ -> period)) in
  of_list ~warmup:(warmup_periods * t) ~metric_pc:(Some loop_pc) records

(* --- phase-change storm ------------------------------------------------------- *)

(* Level p: one branch flips bias every p executions (p taken, p not-taken,
   repeat). A c-bit saturated counter pays exactly 2^(c-1) mispredicts per
   flip: accuracy is exactly 1 - 2^(c-1)/p. A history predictor sees the
   flip coming once p fits its window and pays at most one mispredict per
   flip. Deterministic. *)
let gen_phase ~level ~seed:_ =
  if level < 2 then invalid_arg "probe phase: level (phase length) >= 2";
  let p = level in
  let warmup_phases = 4 in
  let measure_phases = 20 in
  let phase taken = List.init p (fun _ -> cond ~pc:phase_pc ~taken) in
  let records =
    List.concat
      (List.init (warmup_phases + measure_phases) (fun i -> phase (i land 1 = 0)))
  in
  of_list ~warmup:(warmup_phases * p) ~metric_pc:(Some phase_pc) records

(* --- set-aliasing sweep ------------------------------------------------------- *)

(* Level N: N branch sites at PC stride 4 with alternating fixed biases,
   visited round-robin in site order. Once N exceeds a PC-indexed table's
   capacity the fold maps conflicting sites onto shared counters; a 2-bit
   counter shared by two alternating opposite-bias sites settles into one
   of two period-2 orbits fixed by which site is visited first (2 misses
   per round when the first-visited site is taken-biased, 1 otherwise), so
   the expected accuracy is exactly computable from the declared index
   function. Deterministic (the site set IS the phenomenon; a seed-rotated
   start would select between the two orbits and break exactness). *)
let alias_site_pc i = alias_base + (4 * i)
let alias_site_bias i = i land 1 = 0

let gen_alias ~level ~seed:_ =
  if level < 2 then invalid_arg "probe alias: level (sites) >= 2";
  let n = level in
  let rounds_warm = 6 and rounds_meas = 6 in
  let round () =
    List.init n (fun i -> cond ~pc:(alias_site_pc i) ~taken:(alias_site_bias i))
  in
  let records = List.concat (List.init (rounds_warm + rounds_meas) (fun _ -> round ())) in
  of_list ~warmup:(rounds_warm * n) ~metric_pc:None records

(* --- tag-width stressor ------------------------------------------------------- *)

(* Level N: N always-taken sites at PC stride 4, visited in a seeded
   shuffled (but fixed) order — the working-set stress for tagged tables.
   Contiguous PCs keep the index fold collision-free up to the table's
   capacity E, so residency is exactly the pigeonhole story: for N <= E
   every site owns its entry (accuracy 1 after warmup); each site beyond E
   contests one entry, and an allocate-on-miss tagged table ping-pongs
   ownership so both members of a contested pair abstain (falling to the
   not-taken default, wrong for taken-biased sites) on every visit. The
   expected accuracy is 1 - 2(N - E)/N, crossing the collapse threshold
   just past E — asserted as an envelope (E, 2E]. All-taken biases keep
   untagged counter tables trivially correct, isolating the tag/allocation
   machinery as the only thing under test. *)
let tag_site_pc i = tag_base + (4 * i)

let gen_tag ~level ~seed =
  if level < 2 then invalid_arg "probe tag: level (sites) >= 2";
  let n = level in
  let rng = Rng.create ~seed:(seed lxor 0x7a95) in
  let order = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  let rounds_warm = 8 and rounds_meas = 8 in
  let round () = List.init n (fun j -> cond ~pc:(tag_site_pc order.(j)) ~taken:true) in
  let records = List.concat (List.init (rounds_warm + rounds_meas) (fun _ -> round ())) in
  of_list ~warmup:(rounds_warm * n) ~metric_pc:None records

(* --- catalogue ---------------------------------------------------------------- *)

let all =
  [
    {
      p_name = "ladder";
      p_doc = "de Bruijn history-length ladder: accuracy collapses at usable history + 1";
      p_unit = "order";
      p_gen = gen_ladder;
    };
    {
      p_name = "corr";
      p_doc = "correlated-pair ladder: outcome carried at history depth = level";
      p_unit = "distance";
      p_gen = gen_corr;
    };
    {
      p_name = "loop";
      p_doc = "loop-trip-count scan: periodic exit at history depth = period";
      p_unit = "period";
      p_gen = gen_loop;
    };
    {
      p_name = "phase";
      p_doc = "phase-change storm: bias flips every level executions";
      p_unit = "phase-len";
      p_gen = gen_phase;
    };
    {
      p_name = "alias";
      p_doc = "set-aliasing sweep: conflicting-bias sites vs table capacity";
      p_unit = "sites";
      p_gen = gen_alias;
    };
    {
      p_name = "tag";
      p_doc = "tag-width stressor: shuffled fixed-bias working set vs tagged capacity";
      p_unit = "sites";
      p_gen = gen_tag;
    };
  ]

let names = List.map (fun p -> p.p_name) all

let find name =
  let n = String.lowercase_ascii (String.trim name) in
  match List.find_opt (fun p -> String.equal p.p_name n) all with
  | Some p -> Ok p
  | None ->
    Error
      (Printf.sprintf "unknown probe %S (valid probes: %s)" name (String.concat ", " names))

let find_exn name = match find name with Ok p -> p | Error m -> failwith m

(* --- trace plumbing ----------------------------------------------------------- *)

let digest stream =
  let buf = Buffer.create (Array.length stream.s_records * 4) in
  Array.iter (fun r -> Btrace.encode_record buf r) stream.s_records;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let to_trace_file ?format ~path stream =
  Writer.with_file ?format path (fun w ->
      Array.iter (fun r -> Writer.add w r) stream.s_records)

let source stream =
  let i = ref 0 in
  Cobra_trace_replay.Replay.of_records (fun () ->
      if !i >= Array.length stream.s_records then None
      else begin
        let r = stream.s_records.(!i) in
        incr i;
        Some r
      end)
