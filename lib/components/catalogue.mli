(** The component catalogue: one entry per kind of sub-component in this
    library, in the order [cobra list components] prints them. Designs are
    composed from these kinds. Every golden model in the conformance kit
    and every component probe target records the kind it instantiates,
    spelled as here, and a tier-1 check keys on this list: each kind has a
    golden twin and a probe target, nothing names a kind missing here, and
    each default instance accounts for its state and allocates nothing per
    packet once warm. *)

type entry = {
  kind : string;  (** upper case, as listed *)
  doc : string;  (** one line *)
  make : unit -> Cobra.Component.t;  (** a default instance named [kind], 4 slots wide *)
}

val all : entry list
