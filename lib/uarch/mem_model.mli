(** Memory hierarchy timing model per the paper's Table II: 32 KB 8-way L1
    I/D caches (with a next-line instruction prefetcher), a 512 KB 8-way L2,
    a 4 MB LLC standing in for the FASED model, and a flat DRAM latency
    standing in for the FASED DDR3 timing model. *)

type latencies = {
  l1 : int;  (** load-to-use on an L1 hit *)
  l2 : int;
  l3 : int;
  dram : int;
}

val default_latencies : latencies

type t

val create : unit -> t
(** A cold hierarchy at {!default_latencies}. *)

val load_latency : t -> addr:int -> int
val store_latency : t -> addr:int -> int
(** Stores retire through a store buffer; the returned latency is the
    occupancy cost, but the hierarchy is still probed/filled. *)

val fetch_latency : t -> addr:int -> int
(** Instruction fetch of the line containing [addr]; 0 on an L1I hit. Fires
    the next-line prefetcher. *)
