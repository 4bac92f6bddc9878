type event = {
  ctx : Context.t;
  meta : Cobra_util.Bits.t;
  slots : Types.resolved array;
  culprit : int option;
}

type event_kind = Predict | Fire | Mispredict | Repair | Update

let all_event_kinds = [ Predict; Fire; Mispredict; Repair; Update ]

let event_kind_name = function
  | Predict -> "predict"
  | Fire -> "fire"
  | Mispredict -> "mispredict"
  | Repair -> "repair"
  | Update -> "update"

let event_kind_index = function
  | Predict -> 0
  | Fire -> 1
  | Mispredict -> 2
  | Repair -> 3
  | Update -> 4


type family =
  | Counter_table
  | Btb
  | Micro_btb
  | Tagged_table
  | Tage
  | Loop
  | Selector
  | Perceptron
  | Corrector
  | Static

let pp_family ppf f =
  Format.pp_print_string ppf
    (match f with
    | Counter_table -> "counter-table"
    | Btb -> "btb"
    | Micro_btb -> "ubtb"
    | Tagged_table -> "tagged-table"
    | Tage -> "tage"
    | Loop -> "loop"
    | Selector -> "selector"
    | Perceptron -> "perceptron"
    | Corrector -> "corrector"
    | Static -> "static")

type t = {
  name : string;
  family : family;
  fetch_width : int;
  latency : int;
  meta_bits : int;
  storage : Storage.t;
  state : Cobra_util.Slab.t;
  predict :
    Context.t ->
    pred_in:Row.t array ->
    out:Row.t ->
    meta:Cobra_util.Bits.t ->
    unit;
  fire : event -> unit;
  mispredict : event -> unit;
  repair : event -> unit;
  update : event -> unit;
}

let no_op (_ : event) = ()

let make ~name ~family ~fetch_width ~latency ~meta_bits ~storage
    ?(state = Cobra_util.Slab.empty) ~predict ?(fire = no_op) ?(mispredict = no_op)
    ?(repair = no_op) ?(update = no_op) () =
  if latency < 1 then
    invalid_arg
      (Printf.sprintf "Component.make %s: latency %d < 1 (histories arrive at Fetch-1)" name
         latency);
  if meta_bits < 0 then invalid_arg (Printf.sprintf "Component.make %s: negative meta_bits" name);
  {
    name;
    family;
    fetch_width;
    latency;
    meta_bits;
    storage;
    state;
    predict;
    fire;
    mispredict;
    repair;
    update;
  }

let label t = Printf.sprintf "%s_%d" t.name t.latency

let state_cells t = Cobra_util.Slab.length t.state
let snapshot t = Cobra_util.Slab.copy t.state
let restore t s = Cobra_util.Slab.blit ~src:s ~dst:t.state
