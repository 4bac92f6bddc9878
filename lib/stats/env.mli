(** Environment knobs for the statistics subsystem.

    - [COBRA_STATS] — enable collection ([1]/[true]/[yes]/[on], or
      [0]/[false]/[no]/[off]; any other value raises; default off, in which
      case the whole subsystem is inert);
    - [COBRA_STATS_DIR] — directory for exported report files (default
      [_cobra_stats]);
    - [COBRA_STATS_TOP] — rows kept in the hard-to-predict branch table
      (default 20);
    - [COBRA_STATS_INTERVAL] — nominal instructions per interval-metrics
      bucket (default 1000). *)

val enabled : unit -> bool
val dir : unit -> string
val top : unit -> int
val interval : unit -> int
