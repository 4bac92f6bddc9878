(** A minimal self-contained JSON representation, emitter and parser — just
    enough for the stats report export, the serve protocol and the
    benchmark, without adding a dependency. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact single-line rendering. *)

val of_string : string -> (t, string) result
(** Parses the output of {!to_string} (and ordinary JSON). Numbers without a
    fraction or exponent become [Int]. *)

(** {1 Accessors} *)

val member : string -> t -> t option
val to_int : t -> int option
val to_float : t -> float option
val to_str : t -> string option
val to_list : t -> t list option

val int_member : string -> t -> default:int -> int
val str_member : string -> t -> default:string -> string
val list_member : string -> t -> t list
