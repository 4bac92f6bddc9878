(** Workload suite definitions used by the evaluation harness. *)

type entry = {
  name : string;
  description : string;
  make : unit -> Cobra_isa.Trace.stream;
  decode : (int -> Cobra_isa.Trace.event option) option;
      (** static instruction decode for wrong-path fetch, when the workload
          is backed by a program image *)
}

val specint : entry list
(** The ten SPECint17-named kernels, Fig 10 order. *)

val all : entry list
(** {!specint}, then Dhrystone-like, CoreMark-like and the synthetic
    kernels. *)

val find : string -> entry
(** Raises [Not_found]. *)
