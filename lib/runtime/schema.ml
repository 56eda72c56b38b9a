module Json = Metrics.Json

let ( let* ) = Result.bind

module ISet = Set.Make (Int)

(* [Events.parse] checks each line's grammar; then one fold over the
   events in line order checks the timeline: ids strictly increase
   whatever the kind, move steps strictly increase, rounds never
   decrease (consecutive runs share a boundary), nodes are
   non-negative (service joins grow n past the meta's, so there is no
   upper bound), and every cause names an earlier fault, churn or
   move. *)
type timeline = { id : int; step : int; round : int; sources : ISet.t }

let validate_trace contents =
  let* _, events = Events.parse contents in
  let check acc ({ id; kind } : Events.event) =
    let* t = acc in
    let round, node, step, causes, source =
      match kind with
      | Events.Move { round; node; step; causes; _ } -> (round, node, Some step, causes, true)
      | Events.Fault { round; node } | Events.Churn { round; node; _ } ->
          (round, node, None, [], true)
      | Events.Round { round; _ } -> (round, 0, None, [], false)
    in
    let fail fmt = Printf.ksprintf (fun m -> Error (Printf.sprintf "event %d: %s" id m)) fmt in
    if id <= t.id then Error (Printf.sprintf "event id %d not increasing" id)
    else if round < t.round then fail "round %d after round %d" round t.round
    else if node < 0 then fail "negative node %d" node
    else if List.exists (fun c -> not (ISet.mem c t.sources)) causes then
      fail "a cause is no earlier fault, churn or move"
    else
      match step with
      | Some s when s <= t.step -> fail "step %d after step %d" s t.step
      | _ ->
          let step = Option.value step ~default:t.step in
          Ok { id; step; round; sources = (if source then ISet.add id t.sources else t.sources) }
  in
  let* (_ : timeline) =
    List.fold_left check (Ok { id = -1; step = 0; round = min_int; sources = ISet.empty }) events
  in
  Ok (List.length events)

let sniff contents =
  let first_line =
    match String.index_opt contents '\n' with
    | Some i -> String.sub contents 0 i
    | None -> contents
  in
  let categorize j =
    if Json.member "ev" j <> None then Some `Trace
    else if Json.member "experiments" j <> None then Some `Bench
    else if Json.member "cells" j <> None then
      (* Chaos and service artifacts both lead with cells; the service
         meta header is the one that names its churn traces. *)
      match Json.member "meta" j with
      | Some meta when Json.member "traces" meta <> None -> Some `Service
      | _ -> Some `Chaos
    else None
  in
  match Json.of_string (String.trim first_line) with
  | Some j -> categorize j
  | None -> Option.bind (Json.of_string (String.trim contents)) categorize
