let enabled () = Cobra_util.Env.bool_var "COBRA_STATS" ~default:false

let dir () =
  match Sys.getenv_opt "COBRA_STATS_DIR" with
  | Some d when String.trim d <> "" -> d
  | Some _ | None -> "_cobra_stats"

let top () = Cobra_util.Env.int_var ~min:1 "COBRA_STATS_TOP" ~default:20
let interval () = Cobra_util.Env.int_var ~min:1 "COBRA_STATS_INTERVAL" ~default:1000
