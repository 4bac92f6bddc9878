(** [cobra serve] — a persistent sweep-serving daemon over a Unix socket.

    Protocol: line-delimited JSON. The client sends one request object per
    line; the server answers with a stream of event objects, one per line,
    always terminated by [{"event": "done"}] — so a client can multiplex
    requests over one connection by reading to the terminator.

    Requests ([op] selects):

    - [{"op": "ping"}] — liveness probe; answered with ["pong"].
    - [{"op": "replay", "design": D, "trace", PATH, ...}] — one replay
      point. Optional fields: [max_branches], [max_insns] (caps),
      [stats: true] (attach the collector; streams ["interval"] points and
      a ["stats"] summary, skips the result cache), [no_cache: true],
      ["engine": "compiled"|"interpreted"] (default compiled — the staged
      topology compiler's engine, bit-identical to the interpreter per the
      compiled_twin conformance checks; stats runs always interpret).
    - [{"op": "sweep", "designs": [..], "traces": [..], ...}] — the full
      cross product, sharded over the domain pool; one ["result"] event per
      point in submission order (an ["error"] event naming the design and
      trace for a failed point), same optional caps, then a
      ["sweep_summary"]. [designs] omitted or empty means the paper's
      Table I designs. With [warmup_branches] and [window_branches] (plus
      optional [windows], default 1, and [verify: true]) the sweep runs in
      windowed mode: each point replays a shared warmup region once,
      checkpoints the whole design into a flat snapshot (kept in the
      daemon's warm cache keyed like the result cache, so later sweeps
      restore it with one memcpy per region instead of re-warming), then
      measures [windows] consecutive windows of [window_branches] branches;
      one ["result"] event per window carries ["window"], ["warm_cached"],
      ["verified"] and ["engine"]. [verify: true] recomputes the whole
      region on a fresh {e interpreted} pipeline without snapshots and
      fails the point unless every window's counters match bit-for-bit —
      under the default compiled engine this certifies both the snapshot
      handoff and the compilation in one pass. Each daemon has its own
      warm cache: a bounded LRU of [COBRA_WARM_CACHE] checkpoints (default
      64, minimum 1, read once by {!create}); ["sweep_summary"] reports its
      ["warm_entries"] and ["warm_evictions"].
    - [{"op": "probe", "probes": [..], "targets": [..], "seed": N}] — the
      probe fidelity matrix ({!Cobra_probe.Oracle.run_matrix}); one
      ["probe"] event per (target, probe) pair and a ["probe-summary"].
      Omitted or empty lists mean the full catalogue; an unknown name is an
      error listing the valid ones.
    - [{"op": "shutdown"}] — answered with ["bye"]; the daemon drains and
      exits.

    Responses all carry ["ts"], ["label": "serve"] and the request's ["id"]
    (when given) so they interleave safely in logs; ["result"] events carry
    the replay counters, MPKI and ["cached": true|false]. Repeated points
    are answered from the runner's content-addressed result cache keyed on
    design topology + pipeline config + trace file digest + caps; a
    [replay] op and a one-point plain sweep share their key. Each trace is
    digested once per request, however many designs the request sweeps
    over it. A point whose replay reads no branch record (an empty or
    header-only trace) is an error, on every path, and leaves nothing in
    either cache. A malformed or failing request produces an ["error"]
    event (plus "done") on that connection only — the daemon survives. A
    request line longer than {!max_request_bytes} gets the same answer,
    after which the daemon closes that connection. Per-request work is
    bounded by the server's timeout and runs isolated, so one poisoned
    trace cannot wedge the pool.

    Knobs ({!Cobra_util.Env}): [COBRA_WARM_CACHE] sizes the warm cache,
    [COBRA_JOBS] is {!default_config}'s pool width, and [COBRA_CACHE] and
    [COBRA_CACHE_DIR] govern the result cache. *)

type config = {
  socket : string;  (** Unix-domain socket path *)
  jobs : int;  (** domain-pool width for sweep sharding *)
  timeout_s : float option;  (** per-request replay budget *)
}

val max_request_bytes : int
(** The longest request line the daemon reads (1 MiB, newline excluded). *)

val default_config : socket:string -> config
(** No timeout, pool-default jobs. *)

type t
(** One daemon: its config and its warm-checkpoint cache. *)

val create : config -> t
(** A daemon with an empty warm cache. Raises [Failure] on a malformed
    [COBRA_WARM_CACHE]. *)

val serve : t -> unit
(** Bind, then accept-loop until a [shutdown] request arrives. An existing
    socket path is replaced only when it is a stale socket that refuses
    connections; raises [Failure] naming the path when the path is not a
    socket, or when a daemon is already listening on it. Each connection is
    handled on its own thread; [SIGPIPE] is ignored so a client hanging up
    mid-stream only ends that connection. *)

(** {1 Client side} *)

val request : ?timeout_s:float -> socket:string -> string -> string list
(** Connect, send one request line, and return every response line through
    the ["done"] terminator (inclusive). Raises [Failure] on connect
    errors, EOF before the terminator, or [timeout_s] (default 60s)
    expiring. *)

val shutdown : ?timeout_s:float -> socket:string -> unit -> unit
(** Send [{"op": "shutdown"}] and wait for the acknowledgement. *)

(** {1 Exposed for tests} *)

val handle_line : t -> (string -> unit) -> string -> [ `Continue | `Shutdown ]
(** Process one request line, emitting response lines through the callback.
    Never raises: protocol and execution failures become ["error"]
    events. *)
