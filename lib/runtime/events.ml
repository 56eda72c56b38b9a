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
  move_phi : bool;
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

let make mode ~record_phi ~move_phi =
  {
    mode;
    record_phi;
    move_phi;
    next_id = 0;
    total = 0;
    rev_samples = [];
    writes_total = 0;
    writes_at_round = 0;
    sources = [];
  }

let ring ?(capacity = 65536) ?(record_phi = false) ?(move_phi = false) () =
  if capacity <= 0 then invalid_arg "Events.ring: capacity must be positive";
  make (Ring { capacity; q = Queue.create () }) ~record_phi ~move_phi

let stream ?(record_phi = false) ?(move_phi = false) oc =
  make (Stream oc) ~record_phi ~move_phi

let series ?(record_phi = true) () = make Series ~record_phi ~move_phi:false
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
  | Round { round; enabled; bits = mx, total; phi } ->
      Json.Obj
        ([
           ("ev", Json.Str "round");
           ("id", Json.Int id);
           ("round", Json.Int round);
           ("enabled", Json.Int enabled);
           ("bits", Json.List [ Json.Int mx; Json.Int total ]);
         ]
        @ match phi with Some p -> [ ("phi", Json.Int p) ] | None -> [])

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
  | Stream oc -> Json.to_channel oc (Json.Obj (("ev", Json.Str "meta") :: fields))

let emit t kind =
  let id = t.next_id in
  t.next_id <- id + 1;
  push t { id; kind };
  id

let emit_move t ~node ~step ~round ?rule ~bits_before ~bits_after ?dphi ~causes () =
  emit t (Move { node; step; round; rule; bits_before; bits_after; dphi; causes })

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

let sample_json s =
  Json.Obj
    [
      ("round", Json.Int s.round);
      ("enabled", Json.Int s.enabled);
      ("writes", Json.Int s.writes);
      ("writes_total", Json.Int s.writes_total);
      ("max_bits", Json.Int s.max_bits);
      ("total_bits", Json.Int s.total_bits);
      ("phi", match s.phi with Some v -> Json.Int v | None -> Json.Null);
    ]

let max_bits t = List.fold_left (fun acc s -> max acc s.max_bits) 0 t.rev_samples

let series_json ?(meta = []) t =
  let phis = phi_series t in
  let opt_int = function Some v -> Json.Int v | None -> Json.Null in
  Json.Obj
    [
      ("meta", Json.Obj meta);
      ("rounds", Json.List (List.map sample_json (samples t)));
      ( "summary",
        Json.Obj
          [
            ("rounds", Json.Int (last_round t));
            ("writes_total", Json.Int t.writes_total);
            ("max_bits", Json.Int (max_bits t));
            ("phi_first", opt_int (Option.map snd (List.nth_opt phis 0)));
            ("phi_final", opt_int (Option.map snd (List.nth_opt (List.rev phis) 0)));
          ] );
    ]

let pp_series ppf t =
  let phis = phi_series t in
  Format.fprintf ppf "rounds=%d writes=%d max_bits=%d" (last_round t) t.writes_total
    (max_bits t);
  match (phis, List.rev phis) with
  | (r0, v0) :: _, (r1, v1) :: _ ->
      Format.fprintf ppf " phi: %d (round %d) -> %d (round %d)" v0 r0 v1 r1
  | _ -> Format.fprintf ppf " phi: (undefined)"

(* ------------------------------------------------------------------ *)
(* The parser: the inverse of [event_json] and [meta]. *)

let int_field j k = match Json.member k j with Some (Json.Int i) -> Some i | _ -> None

let req_int j k =
  match int_field j k with Some i -> i | None -> failwith (Printf.sprintf "missing %S" k)

let int_pair j k =
  match Json.member k j with
  | Some (Json.List [ Json.Int a; Json.Int b ]) -> (a, b)
  | _ -> failwith (Printf.sprintf "missing %S pair" k)

let parse_line j =
  let id () = req_int j "id" in
  match Json.member "ev" j with
  | Some (Json.Str "meta") -> (
      match j with
      | Json.Obj fields -> `Meta (List.filter (fun (k, _) -> k <> "ev") fields)
      | _ -> failwith "meta is not an object")
  | Some (Json.Str "move") ->
      let rule = match Json.member "rule" j with Some (Json.Str r) -> Some r | _ -> None in
      let bits_before, bits_after = int_pair j "bits" in
      let causes =
        match Json.member "causes" j with
        | Some (Json.List l) ->
            List.map (function Json.Int c -> c | _ -> failwith "non-int cause") l
        | _ -> failwith "missing causes"
      in
      `Event
        {
          id = id ();
          kind =
            Move
              {
                node = req_int j "node";
                step = req_int j "step";
                round = req_int j "round";
                rule;
                bits_before;
                bits_after;
                dphi = int_field j "dphi";
                causes;
              };
        }
  | Some (Json.Str "fault") ->
      `Event
        { id = id (); kind = Fault { node = req_int j "node"; round = req_int j "round" } }
  | Some (Json.Str "churn") ->
      let op =
        match Json.member "op" j with
        | Some (Json.Str o) -> o
        | _ -> failwith "missing \"op\" field"
      in
      `Event
        {
          id = id ();
          kind = Churn { node = req_int j "node"; round = req_int j "round"; op };
        }
  | Some (Json.Str "round") ->
      `Event
        {
          id = id ();
          kind =
            Round
              {
                round = req_int j "round";
                enabled = req_int j "enabled";
                bits = int_pair j "bits";
                phi = int_field j "phi";
              };
        }
  | Some (Json.Str k) -> failwith (Printf.sprintf "unknown event kind %S" k)
  | _ -> failwith "missing \"ev\" field"

let parse contents =
  let rec go i meta acc = function
    | [] -> Ok (meta, List.rev acc)
    | line :: rest -> (
        let line = String.trim line in
        if line = "" then go (i + 1) meta acc rest
        else
          match Json.of_string line with
          | None -> Error (Printf.sprintf "line %d: not valid JSON" i)
          | Some j -> (
              match parse_line j with
              | `Meta f -> go (i + 1) (Some f) acc rest
              | `Event e -> go (i + 1) meta (e :: acc) rest
              | exception Failure msg -> Error (Printf.sprintf "line %d: %s" i msg)))
  in
  go 1 None [] (String.split_on_char '\n' contents)
