(* The pre-refactor Telemetry sink, fed from an engine's public hooks
   instead of from inside the executor: [on_step] reports each write's
   register size, [on_round] the enabled-node count (full guards on
   fresh views), the configuration's max/total register bits and Φ.
   Attached to any run, it computes the series the engine's event sink
   must fold to. *)

module Graph = Repro_graph.Graph
module Protocol = Repro_runtime.Protocol
module Engine = Repro_runtime.Engine

let attach (type s) (module P : Protocol.S with type state = s) ?record_phi g =
  let module E = Engine.Make (P) in
  let t = Telemetry.create ?record_phi () in
  let on_step v (states : s array) =
    Telemetry.on_write t ~bits:(P.size_bits (Array.length states) states.(v))
  in
  let on_round round (states : s array) =
    let n = Array.length states in
    let bits = Array.map (P.size_bits n) states in
    Telemetry.on_round t ~round
      ~enabled:(List.length (E.enabled g states))
      ~max_bits:(Array.fold_left max 0 bits)
      ~total_bits:(Array.fold_left ( + ) 0 bits)
      ~phi:(if Telemetry.wants_phi t then P.potential g states else None)
  in
  (t, on_round, on_step)
