(** Windowed IPC/MPKI time series with bounded memory.

    Buckets are nominally [width] instructions wide; every [sample] call
    carries the run's {e cumulative} counters and closes a bucket once the
    instruction delta reaches the current width. When the buffer fills, adjacent
    buckets are coalesced pairwise and the width doubles, so the series covers
    a run of any length in at most [capacity] points. *)

type point = {
  p_start : int;  (** cumulative instructions at bucket start *)
  p_insns : int;
  p_cycles : int;
  p_mispredicts : int;
}

type t

val create : ?capacity:int -> width:int -> unit -> t
(** Raises [Invalid_argument] when [width < 1] or [capacity < 2].
    [capacity] defaults to 512. *)

val sample : t -> insns:int -> cycles:int -> mispredicts:int -> unit
(** Feed the current cumulative counters; cheap when no bucket closes. *)

val flush : t -> insns:int -> cycles:int -> mispredicts:int -> unit
(** Close the final partial bucket (if non-empty) at end of run. *)

val width : t -> int
(** Current bucket width in instructions (grows by doubling). *)

val points : t -> point list

val ipc : point -> float
(** 0.0 on an empty bucket rather than nan. *)

val mpki : point -> float

val point_to_json : point -> Json.t
(** One interval bucket as a JSON object (raw counters plus derived
    IPC/MPKI) — the serve daemon's ["interval"] event payload. *)
