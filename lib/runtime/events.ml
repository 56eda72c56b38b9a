module Json = Metrics.Json

type kind =
  | Move of {
      node : int;
      step : int;
      round : int;
      rule : string option;
      bits_before : int;
      bits_after : int;
      causes : int list;
    }
  | Fault of { node : int; round : int }
  | Churn of { node : int; round : int; op : string }
  | Round of { round : int; enabled : int; bits : int * int; phi : int option }

type event = { id : int; kind : kind }

type sample = {
  round : int;
  enabled : int;
  writes : int;
  writes_total : int;
  max_bits : int;
  total_bits : int;
  phi : int option;
}

type mode =
  | Ring of { capacity : int; q : event Queue.t }
  | Stream of out_channel
  | Series

type t = {
  mode : mode;
  record_phi : bool;
  mutable next_id : int;
  mutable total : int;
  (* The series fold: samples newest first, and the move counts. *)
  mutable rev_samples : sample list;
  mutable writes_total : int;
  mutable writes_at_round : int;
  (* Sources emitted by [emit_sources], (node, event id) in emission
     order, until the next engine run takes them. *)
  mutable sources : (int * int) list;
}

let make mode ~record_phi =
  {
    mode;
    record_phi;
    next_id = 0;
    total = 0;
    rev_samples = [];
    writes_total = 0;
    writes_at_round = 0;
    sources = [];
  }

let ring ?(capacity = 65536) ?(record_phi = false) () =
  if capacity <= 0 then invalid_arg "Events.ring: capacity must be positive";
  make (Ring { capacity; q = Queue.create () }) ~record_phi

let stream ?(record_phi = false) oc = make (Stream oc) ~record_phi
let series ?(record_phi = true) () = make Series ~record_phi
let wants_phi t = t.record_phi

(* ------------------------------------------------------------------ *)
(* The trace format, declared once: a line is ["ev"] (its kind's tag),
   the event's ["id"], then the kind's fields. The writer and {!parse}
   derive from these lists; a getter is only applied to the kinds that
   list its field. *)

let other () = invalid_arg "Events: field of another kind"
let id = Artifact.(field "id" int Fun.id)
let step = Artifact.(field "step" int (function Move m -> m.step | _ -> other ()))

let rule =
  Artifact.(field "rule" (optional string) (function Move m -> m.rule | _ -> other ()))

let causes =
  Artifact.(field "causes" (list int) (function Move m -> m.causes | _ -> other ()))

let op = Artifact.(field "op" string (function Churn c -> c.op | _ -> other ()))
let enabled = Artifact.(field "enabled" int (function Round r -> r.enabled | _ -> other ()))
let phi = Artifact.(field "phi" (optional int) (function Round r -> r.phi | _ -> other ()))

let round =
  Artifact.(
    field "round" int (function
      | Move { round; _ } | Fault { round; _ } | Churn { round; _ } | Round { round; _ } ->
          round))

let node =
  Artifact.(
    field "node" int (function
      | Move { node; _ } | Fault { node; _ } | Churn { node; _ } -> node
      | Round _ -> other ()))

(* (before, after) on a move; (max, total) over the configuration on a
   round boundary. *)
let bits =
  Artifact.(
    field "bits" (pair int) (function
      | Move m -> (m.bits_before, m.bits_after)
      | Round r -> r.bits
      | _ -> other ()))

(* A line kind: its tag, its fields after ["id"] in written order, and
   how the reader builds the kind from the checked fields. *)
type shape = { tag : string; fields : kind Artifact.t; build : reader -> kind }
and reader = { get : 'w 'r. (kind, 'w, 'r) Artifact.field -> 'r }

let move_line =
  let fields = Artifact.[ F step; F round; F node; F rule; F bits; F causes ] in
  let build { get } =
    let bits_before, bits_after = get bits in
    Move
      { node = get node; step = get step; round = get round; rule = get rule; bits_before;
        bits_after; causes = get causes }
  in
  { tag = "move"; fields; build }

let fault_line =
  let build { get } = Fault { node = get node; round = get round } in
  { tag = "fault"; fields = Artifact.[ F round; F node ]; build }

let churn_line =
  let build { get } = Churn { node = get node; round = get round; op = get op } in
  { tag = "churn"; fields = Artifact.[ F round; F node; F op ]; build }

let round_line =
  let build { get } =
    Round { round = get round; enabled = get enabled; bits = get bits; phi = get phi }
  in
  { tag = "round"; fields = Artifact.[ F round; F enabled; F bits; F phi ]; build }

let shapes = [ move_line; fault_line; churn_line; round_line ]

let shape = function
  | Move _ -> move_line
  | Fault _ -> fault_line
  | Churn _ -> churn_line
  | Round _ -> round_line

let meta_tag = "meta"
let ev = Artifact.(field "ev" (enum (meta_tag :: List.map (fun s -> s.tag) shapes)) Fun.id)

let event_json { id = i; kind } =
  let s = shape kind in
  Json.Obj Artifact.(members [ F ev ] s.tag @ members [ F id ] i @ members s.fields kind)

(* Every event goes through here: the series fold first, then the
   sink's own retention. *)
let push t e =
  t.total <- t.total + 1;
  (match e.kind with
  | Move _ -> t.writes_total <- t.writes_total + 1
  | Round { round; enabled; bits = max_bits, total_bits; phi } ->
      let writes = t.writes_total - t.writes_at_round in
      t.writes_at_round <- t.writes_total;
      t.rev_samples <-
        { round; enabled; writes; writes_total = t.writes_total; max_bits; total_bits; phi }
        :: t.rev_samples
  | Fault _ | Churn _ -> ());
  match t.mode with
  | Ring { capacity; q } ->
      Queue.push e q;
      if Queue.length q > capacity then ignore (Queue.pop q)
  | Stream oc -> Json.to_channel oc (event_json e)
  | Series -> ()

let meta t fields =
  match t.mode with
  | Ring _ | Series -> ()
  | Stream oc -> Json.to_channel oc (Json.Obj (Artifact.members [ F ev ] meta_tag @ fields))

let emit t kind =
  let id = t.next_id in
  t.next_id <- id + 1;
  push t { id; kind };
  id

let emit_move t ~node ~step ~round ?rule ~bits_before ~bits_after ~causes () =
  emit t (Move { node; step; round; rule; bits_before; bits_after; causes })

(* The sink's clock: the round of the last [Round] event and the [Move]
   events so far. *)
let last_round t = match t.rev_samples with s :: _ -> s.round | [] -> 0
let writes_total t = t.writes_total
let emit_fault t ~node = emit t (Fault { node; round = last_round t })
let emit_churn t ~node ~op = emit t (Churn { node; round = last_round t; op })

let emit_sources sink nodes ~emit =
  Option.iter (fun t -> t.sources <- List.map (fun v -> (v, emit t v)) nodes) sink

let take_sources t g =
  match t.sources with
  | [] -> None
  | sources ->
      t.sources <- [];
      let near v u = u = v || Repro_graph.Graph.has_edge g u v in
      Some (fun v -> List.filter_map (fun (u, e) -> if near v u then Some e else None) sources)

let emit_round t ~round ~enabled ~bits ~phi =
  ignore (emit t (Round { round; enabled; bits; phi }))

let events t =
  match t.mode with
  | Ring { q; _ } -> List.of_seq (Queue.to_seq q)
  | Stream _ | Series -> []

let total t = t.total
let retained t = match t.mode with Ring { q; _ } -> Queue.length q | Stream _ | Series -> 0

(* ------------------------------------------------------------------ *)
(* The series *)

let samples t = List.rev t.rev_samples

let phi_series t =
  List.filter_map (fun s -> Option.map (fun v -> (s.round, v)) s.phi) (samples t)

let max_bits t = List.fold_left (fun acc s -> max acc s.max_bits) 0 t.rev_samples

(* The series format, declared in its one writer (nothing reads it
   back): one object per sample, then the summary. *)
let series_json ?(meta = []) t =
  let sample : sample Artifact.t =
    Artifact.
      [
        F (field "round" int (fun s -> s.round));
        F (field "enabled" int (fun s -> s.enabled));
        F (field "writes" int (fun s -> s.writes));
        F (field "writes_total" int (fun (s : sample) -> s.writes_total));
        F (field "max_bits" int (fun s -> s.max_bits));
        F (field "total_bits" int (fun s -> s.total_bits));
        F (field "phi" (nullable int) (fun s -> s.phi));
      ]
  in
  let phi pick t = Option.map snd (pick (phi_series t)) in
  let first l = List.nth_opt l 0 and last l = List.nth_opt (List.rev l) 0 in
  let summary : t Artifact.t =
    Artifact.
      [
        F (field "rounds" int last_round);
        F (field "writes_total" int writes_total);
        F (field "max_bits" int max_bits);
        F (field "phi_first" (nullable int) (phi first));
        F (field "phi_final" (nullable int) (phi last));
      ]
  in
  let metrics : t Artifact.t =
    Artifact.
      [
        F (field "rounds" (list (obj sample)) samples);
        F (field "summary" (obj summary) Fun.id);
      ]
  in
  Json.Obj (("meta", Json.Obj meta) :: Artifact.members metrics t)

let pp_series ppf t =
  let phis = phi_series t in
  Format.fprintf ppf "rounds=%d writes=%d max_bits=%d" (last_round t) t.writes_total
    (max_bits t);
  match (phis, List.rev phis) with
  | (r0, v0) :: _, (r1, v1) :: _ ->
      Format.fprintf ppf " phi: %d (round %d) -> %d (round %d)" v0 r0 v1 r1
  | _ -> Format.fprintf ppf " phi: (undefined)"

(* ------------------------------------------------------------------ *)
(* The meta header's graph (the producers write [n] and [edges];
   Explain reads them back for cone radii), then the reader: the
   declared fields of each line, then the timeline. *)

let meta_n = Artifact.(field "n" int Repro_graph.Graph.n)

let meta_edges =
  Artifact.(
    field "edges" (list (list int)) (fun g ->
        Array.to_list (Repro_graph.Graph.edges g)
        |> List.map (fun (e : Repro_graph.Graph.Edge.t) -> [ e.u; e.v; e.w ])))

let edges_meta g = Artifact.members [ F meta_edges ] g

let meta_graph fields =
  let j = Json.Obj fields in
  match (Artifact.read meta_n j, Artifact.read meta_edges j) with
  | Ok n, Ok edges -> (
      let triple = function [ u; v; w ] -> (u, v, w) | _ -> invalid_arg "edge" in
      try Some (Repro_graph.Graph.of_edges n (List.map triple edges))
      with Invalid_argument _ -> None)
  | _ -> None

let ( let* ) = Result.bind

let decode j =
  let* tag = Artifact.read ev j in
  match List.find_opt (fun s -> s.tag = tag) shapes with
  | None ->
      (* The meta header: its fields less the tag. *)
      let tagged = Artifact.members [ F ev ] tag in
      let fields = match j with Json.Obj f -> f | _ -> [] in
      Ok (`Meta (List.filter (fun m -> not (List.mem m tagged)) fields))
  | Some s ->
      let* i = Artifact.read id j in
      let* () = Artifact.check s.fields j in
      let get f = Result.get_ok (Artifact.read f j) in
      Ok (`Event { id = i; kind = s.build { get } })

(* In line order: ids strictly increase whatever the kind, move steps
   strictly increase, rounds never decrease (consecutive runs share a
   boundary), nodes are non-negative (service joins grow n past the
   meta's, so there is no upper bound), and every cause names an
   earlier fault, churn or move ([sources] holds the ids so far). *)
type timeline = { last_id : int; last_step : int; last_round : int }

let follow sources tl { id; kind } =
  let round, node, step, causes, source =
    match kind with
    | Move { round; node; step; causes; _ } -> (round, node, Some step, causes, true)
    | Fault { round; node } | Churn { round; node; _ } -> (round, node, None, [], true)
    | Round { round; _ } -> (round, 0, None, [], false)
  in
  let fail fmt = Printf.ksprintf (fun m -> Error (Printf.sprintf "event %d: %s" id m)) fmt in
  if id <= tl.last_id then Error (Printf.sprintf "event id %d not increasing" id)
  else if round < tl.last_round then fail "round %d after round %d" round tl.last_round
  else if node < 0 then fail "negative node %d" node
  else if List.exists (fun c -> not (Hashtbl.mem sources c)) causes then
    fail "a cause is no earlier fault, churn or move"
  else
    match step with
    | Some s when s <= tl.last_step -> fail "step %d after step %d" s tl.last_step
    | _ ->
        if source then Hashtbl.replace sources id ();
        let last_step = Option.value step ~default:tl.last_step in
        Ok { last_id = id; last_step; last_round = round }

let parse contents =
  let sources = Hashtbl.create 1024 in
  let rec go i meta acc tl = function
    | [] -> Ok (meta, List.rev acc)
    | line :: rest -> (
        let line = String.trim line in
        let at r = Result.map_error (Printf.sprintf "line %d: %s" i) r in
        if line = "" then go (i + 1) meta acc tl rest
        else
          let* j = at (Option.to_result ~none:"not valid JSON" (Json.of_string line)) in
          let* line = at (decode j) in
          match line with
          | `Meta f -> go (i + 1) (Some f) acc tl rest
          | `Event e ->
              let* tl = at (follow sources tl e) in
              go (i + 1) meta (e :: acc) tl rest)
  in
  go 1 None [] { last_id = -1; last_step = 0; last_round = min_int }
    (String.split_on_char '\n' contents)
