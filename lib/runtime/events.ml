module Json = Metrics.Json

type kind =
  | Move of {
      node : int;
      step : int;
      round : int;
      rule : string option;
      bits_before : int;
      bits_after : int;
      dphi : int option;
      causes : int list;
    }
  | Fault of { node : int; round : int }
  | Churn of { node : int; round : int; op : string }
  | Round of { round : int; enabled : int; phi : int option }

type event = { id : int; kind : kind }

type mode = Ring of { capacity : int; q : event Queue.t } | Stream of out_channel

type t = {
  mode : mode;
  record_phi : bool;
  move_phi : bool;
  mutable next_id : int;
  mutable total : int;
  mutable header : (string * Json.t) list option;
}

let ring ?(capacity = 65536) ?(record_phi = false) ?(move_phi = false) () =
  if capacity <= 0 then invalid_arg "Events.ring: capacity must be positive";
  {
    mode = Ring { capacity; q = Queue.create () };
    record_phi;
    move_phi;
    next_id = 0;
    total = 0;
    header = None;
  }

let stream ?(record_phi = false) ?(move_phi = false) oc =
  { mode = Stream oc; record_phi; move_phi; next_id = 0; total = 0; header = None }

let wants_phi t = t.record_phi
let wants_move_phi t = t.move_phi

let event_json { id; kind } =
  match kind with
  | Move { node; step; round; rule; bits_before; bits_after; dphi; causes } ->
      let fields =
        [
          ("ev", Json.Str "move");
          ("id", Json.Int id);
          ("step", Json.Int step);
          ("round", Json.Int round);
          ("node", Json.Int node);
        ]
        @ (match rule with Some r -> [ ("rule", Json.Str r) ] | None -> [])
        @ [ ("bits", Json.List [ Json.Int bits_before; Json.Int bits_after ]) ]
        @ (match dphi with Some d -> [ ("dphi", Json.Int d) ] | None -> [])
        @ [ ("causes", Json.List (List.map (fun c -> Json.Int c) causes)) ]
      in
      Json.Obj fields
  | Fault { node; round } ->
      Json.Obj
        [
          ("ev", Json.Str "fault");
          ("id", Json.Int id);
          ("round", Json.Int round);
          ("node", Json.Int node);
        ]
  | Churn { node; round; op } ->
      Json.Obj
        [
          ("ev", Json.Str "churn");
          ("id", Json.Int id);
          ("round", Json.Int round);
          ("node", Json.Int node);
          ("op", Json.Str op);
        ]
  | Round { round; enabled; phi } ->
      Json.Obj
        ([
           ("ev", Json.Str "round");
           ("id", Json.Int id);
           ("round", Json.Int round);
           ("enabled", Json.Int enabled);
         ]
        @ match phi with Some p -> [ ("phi", Json.Int p) ] | None -> [])

let push t e =
  t.total <- t.total + 1;
  match t.mode with
  | Ring { capacity; q } ->
      Queue.push e q;
      if Queue.length q > capacity then ignore (Queue.pop q)
  | Stream oc -> Json.to_channel oc (event_json e)

let meta t fields =
  t.header <- Some fields;
  match t.mode with
  | Ring _ -> ()
  | Stream oc -> Json.to_channel oc (Json.Obj (("ev", Json.Str "meta") :: fields))

let emit_move t ~node ~step ~round ?rule ~bits_before ~bits_after ?dphi ~causes () =
  let id = t.next_id in
  t.next_id <- id + 1;
  push t { id; kind = Move { node; step; round; rule; bits_before; bits_after; dphi; causes } };
  id

let emit_fault t ~node ~round =
  let id = t.next_id in
  t.next_id <- id + 1;
  push t { id; kind = Fault { node; round } };
  id

let emit_churn t ~node ~round ~op =
  let id = t.next_id in
  t.next_id <- id + 1;
  push t { id; kind = Churn { node; round; op } };
  id

let emit_sources sink g nodes ~emit =
  Option.map
    (fun sink ->
      let eids = List.map (fun v -> (v, emit sink v)) nodes in
      fun v ->
        List.filter_map
          (fun (u, e) -> if u = v || Repro_graph.Graph.has_edge g u v then Some e else None)
          eids)
    sink

let emit_round t ~round ~enabled ~phi =
  let id = t.next_id in
  t.next_id <- id + 1;
  push t { id; kind = Round { round; enabled; phi } }

let events t =
  match t.mode with
  | Ring { q; _ } -> List.of_seq (Queue.to_seq q)
  | Stream _ -> []

let meta_fields t = t.header
let total t = t.total

let retained t = match t.mode with Ring { q; _ } -> Queue.length q | Stream _ -> 0
