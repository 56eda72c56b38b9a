(* The slice of the old metrics registry that telemetry.ml links
   against. The registry is gone from the runtime and its instruments
   are not what the oracle pins, so here they record nothing: the
   oracle's series and summary never read them. *)

module Json = Repro_runtime.Metrics.Json

type t = unit
type counter = unit
type gauge = unit
type histogram = unit

let create () = ()
let counter () _ = ()
let gauge () _ = ()
let histogram () _ = ()
let incr ?by:_ () = ()
let set () _ = ()
let observe () _ = ()
let to_json () = Json.Obj []
