(** Plain-text tables and bar charts.

    The bench harness regenerates the paper's tables and figures as text;
    figures become labelled horizontal bar charts so that relative magnitudes
    (the thing the paper's figures communicate) are visible in a terminal. *)

val table : ?title:string -> header:string list -> rows:string list list -> unit -> string
(** Boxed table with column auto-sizing. Numeric-looking cells are
    right-aligned. *)

val bar_chart : title:string -> unit:string -> (string * float) list -> string
(** One bar per labelled value, scaled to the maximum (50 columns). *)

val grouped_bar_chart :
  title:string -> unit:string -> series:string list -> (string * float list) list -> string
(** For each label, one bar per series (Fig 10 style; 42 columns). *)

val stacked_rows :
  title:string -> unit:string -> parts:string list -> (string * float list) list -> string
(** For each label, a breakdown of named parts with a percentage column
    (Fig 8/9 style). *)

val float_cell : ?decimals:int -> float -> string
