(** Report file export. *)

val write : ?variant:string -> dir:string -> Report.t -> unit
(** Write [<design>__<workload>.json] and [.csv] into [dir] (created when
    missing), atomically via temp-file + rename — safe under the parallel
    runner. A non-empty [variant] names what sets the run apart from
    others of the same design and workload: the stem becomes
    [<design>__<workload>__<variant>]. A directory that cannot be made or
    written raises [Failure] naming [dir] and the system error. *)
