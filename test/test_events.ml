(* Event layer: the activation-DAG invariant (every cause precedes its
   move and is edge-adjacent) across all four builders and daemons;
   tracing is semantically invisible (identical run with and without a
   sink); chaos episodes attribute recovery moves to fault injections;
   ring/stream sink semantics; the Explain report's accounting. *)

open Repro_graph
open Repro_runtime
open Repro_core

let seed i = Random.State.make [| 0xEE17; i |]

(* ------------------------------------------------------------------ *)
(* The activation-DAG invariant *)

(* Replay the ring oldest-first: each Move's causes must name earlier
   Move/Fault events whose writing node is the mover itself or one of
   its graph neighbors. *)
let dag_ok g evs =
  let writer = Hashtbl.create 97 in
  List.for_all
    (fun (ev : Events.event) ->
      let ok =
        match ev.Events.kind with
        | Events.Move { node; causes; _ } ->
            List.for_all
              (fun c ->
                c < ev.Events.id
                &&
                match Hashtbl.find_opt writer c with
                | Some u -> u = node || Graph.has_edge g u node
                | None -> false)
              causes
        | Events.Fault _ | Events.Churn _ | Events.Round _ -> true
      in
      (match ev.Events.kind with
      | Events.Move { node; _ }
      | Events.Fault { node; _ }
      | Events.Churn { node; _ } ->
          Hashtbl.replace writer ev.Events.id node
      | Events.Round _ -> ());
      ok)
    evs

(* Returns (steps, retained events) — the functor's result record can't
   escape the local module. *)
let traced_run (type s) (module P : Protocol.S with type state = s) g sched ~sd =
  let module E = Engine.Make (P) in
  let sink = Events.ring ~capacity:1_000_000 () in
  let r =
    E.run ~max_steps:50_000 ~max_rounds:5_000 ~events:sink g sched
      (Random.State.make [| sd; 3 |])
      ~init:(E.adversarial (Random.State.make [| sd; 5 |]) g)
  in
  (r.E.steps, Events.events sink)

let builders : (string * (module Protocol.S)) list =
  [
    ("bfs", (module Bfs_builder.P));
    ("mst", (module Mst_builder.P));
    ("mdst", (module Mdst_builder.P));
    ("spt", (module Spt_builder.P));
  ]

let prop_activation_dag =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:8
       ~name:"activation DAG: causes precede and are edge-adjacent (4 builders x 2 daemons)"
       QCheck2.Gen.(
         let* n = int_range 2 10 in
         let* extra = int_range 0 n in
         let* sd = int_bound 1_000_000 in
         return
           (sd, Generators.random_connected (Random.State.make [| sd |]) ~n ~m:(n - 1 + extra)))
       (fun (sd, g) ->
         List.for_all
           (fun sched ->
             List.for_all
               (fun (_, (module P : Protocol.S)) ->
                 let _, evs = traced_run (module P) g sched ~sd in
                 dag_ok g evs)
               builders)
           [ Scheduler.Central Scheduler.Random_daemon; Scheduler.Distributed 0.5 ]))

let test_moves_are_fully_recorded () =
  (* One move event per engine step, each tagged by classify (all four
     builders implement it, so no "?" rules), ids strictly increasing. *)
  List.iter
    (fun (name, (module P : Protocol.S)) ->
      let g = Generators.random_connected (seed 20) ~n:10 ~m:16 in
      let steps, evs =
        traced_run (module P) g (Scheduler.Central Scheduler.Random_daemon) ~sd:21
      in
      let moves =
        List.filter
          (fun (e : Events.event) ->
            match e.Events.kind with Events.Move _ -> true | _ -> false)
          evs
      in
      Alcotest.(check int) (name ^ ": one event per step") steps (List.length moves);
      List.iter
        (fun (e : Events.event) ->
          match e.Events.kind with
          | Events.Move { rule; _ } ->
              Alcotest.(check bool) (name ^ ": move is rule-tagged") true (rule <> None)
          | _ -> ())
        moves;
      let ids = List.map (fun (e : Events.event) -> e.Events.id) evs in
      Alcotest.(check bool)
        (name ^ ": ids strictly increase")
        true
        (List.for_all2 ( < ) (List.filteri (fun i _ -> i < List.length ids - 1) ids)
           (List.tl ids)))
    builders

(* ------------------------------------------------------------------ *)
(* Tracing must not change semantics *)

let test_tracing_is_semantically_invisible () =
  List.iter
    (fun (name, (module P : Protocol.S)) ->
      let module E = Engine.Make (P) in
      let g = Generators.random_connected (seed 30) ~n:12 ~m:20 in
      let go ~traced =
        let events = if traced then Some (Events.ring ()) else None in
        let profile = if traced then Some (Profile.create ()) else None in
        E.run ?events ?profile ~max_rounds:5_000 g
          (Scheduler.Central Scheduler.Random_daemon)
          (Random.State.make [| 31 |])
          ~init:(E.adversarial (Random.State.make [| 32 |]) g)
      in
      let plain = go ~traced:false and traced = go ~traced:true in
      Alcotest.(check bool)
        (name ^ ": same configuration")
        true
        (Array.for_all2 P.equal_state plain.E.states traced.E.states);
      Alcotest.(check int) (name ^ ": same rounds") plain.E.rounds traced.E.rounds;
      Alcotest.(check int) (name ^ ": same steps") plain.E.steps traced.E.steps;
      Alcotest.(check bool) (name ^ ": same silence") plain.E.silent traced.E.silent)
    builders

(* ------------------------------------------------------------------ *)
(* Chaos attribution *)

(* Taint propagation over the activation DAG: faults are sources, a move
   is tainted when any cause is tainted. *)
let tainted_moves evs =
  let tainted = Hashtbl.create 97 in
  List.filter_map
    (fun (ev : Events.event) ->
      match ev.Events.kind with
      | Events.Fault _ | Events.Churn _ ->
          Hashtbl.replace tainted ev.Events.id ();
          None
      | Events.Move { causes; _ } ->
          if List.exists (Hashtbl.mem tainted) causes then begin
            Hashtbl.replace tainted ev.Events.id ();
            Some ev.Events.id
          end
          else None
      | Events.Round _ -> None)
    evs

(* The trace reader: the event count of a valid trace. *)
let validate contents = Result.map (fun (_, evs) -> List.length evs) (Events.parse contents)

(* The base run and the fault phase share one timeline: the episode's
   trace passes the reader's step/round monotonicity checks. *)
let check_one_timeline evs =
  let lines = List.map (fun e -> Metrics.Json.to_string (Events.event_json e)) evs in
  match validate (String.concat "\n" lines) with
  | Ok n -> Alcotest.(check int) "every event validated" (List.length evs) n
  | Error msg -> Alcotest.failf "episode trace is not one timeline: %s" msg

let first_fault_id evs =
  List.find_map
    (fun (ev : Events.event) ->
      match ev.Events.kind with Events.Fault _ -> Some ev.Events.id | _ -> None)
    evs

let test_chaos_silence_attribution () =
  (* At-silence plan: the pre-fault configuration is silent, so EVERY
     recovery move must be causally attributed to the injection — none
     may be root-spontaneous. *)
  let module C = Chaos.Make (Bfs_builder.P) (Engine.Make (Bfs_builder.P)) in
  let g = Generators.random_connected (seed 40) ~n:16 ~m:24 in
  let sink = Events.ring ~capacity:1_000_000 () in
  let e =
    C.run_episode ~watch_phi:true ~events:sink g (Central Scheduler.Random_daemon)
      (seed 41)
      (Fault.Plan.make (Fault.Plan.Random_nodes 3))
  in
  Alcotest.(check bool) "recovered" true e.C.recovered;
  let evs = Events.events sink in
  Alcotest.(check bool) "DAG invariant holds across the episode" true (dag_ok g evs);
  check_one_timeline evs;
  let fid = match first_fault_id evs with Some i -> i | None -> Alcotest.fail "no fault event" in
  let tainted = tainted_moves evs in
  let recovery_moves =
    List.filter_map
      (fun (ev : Events.event) ->
        match ev.Events.kind with
        | Events.Move _ when ev.Events.id > fid -> Some ev.Events.id
        | _ -> None)
      evs
  in
  Alcotest.(check bool) "recovery happened" true (recovery_moves <> []);
  Alcotest.(check (list int)) "every recovery move is fault-attributed" recovery_moves tainted

let test_chaos_periodic_attribution () =
  (* Periodic plan: phase-1 convergence moves are root-spontaneous;
     anything tainted must postdate the first injection, and at least
     one recovery move is attributed. *)
  let module C = Chaos.Make (Spt_builder.P) (Engine.Make (Spt_builder.P)) in
  let g = Generators.random_connected (seed 42) ~n:16 ~m:24 in
  let sink = Events.ring ~capacity:1_000_000 () in
  let e =
    C.run_episode ~watch_phi:true ~events:sink g
      (Central Scheduler.Random_daemon) (seed 43)
      (Fault.Plan.make (Fault.Plan.Random_nodes 2) ~timing:(Fault.Plan.Periodic 4))
  in
  Alcotest.(check bool) "recovered" true e.C.recovered;
  let evs = Events.events sink in
  Alcotest.(check bool) "DAG invariant holds across the episode" true (dag_ok g evs);
  check_one_timeline evs;
  let fid = match first_fault_id evs with Some i -> i | None -> Alcotest.fail "no fault event" in
  let tainted = tainted_moves evs in
  Alcotest.(check bool) "some recovery move is attributed" true (tainted <> []);
  Alcotest.(check bool)
    "nothing before the first fault is attributed" true
    (List.for_all (fun id -> id > fid) tainted)

(* ------------------------------------------------------------------ *)
(* Sink semantics *)

let test_ring_capacity () =
  let sink = Events.ring ~capacity:4 () in
  for i = 1 to 10 do
    ignore
      (Events.emit_move sink ~node:i ~step:i ~round:0 ~bits_before:1 ~bits_after:1
         ~causes:[] ())
  done;
  Alcotest.(check int) "total counts everything" 10 (Events.total sink);
  Alcotest.(check int) "retained capped" 4 (Events.retained sink);
  let ids = List.map (fun (e : Events.event) -> e.Events.id) (Events.events sink) in
  Alcotest.(check (list int)) "oldest dropped" [ 6; 7; 8; 9 ] ids;
  Alcotest.check_raises "capacity must be positive"
    (Invalid_argument "Events.ring: capacity must be positive") (fun () ->
      ignore (Events.ring ~capacity:0 ()))

let test_stream_roundtrip_explain () =
  (* Stream a traced run to JSONL, re-parse with Explain, and check the
     report's books balance. *)
  let module E = Engine.Make (Bfs_builder.P) in
  let g = Generators.random_connected (seed 50) ~n:14 ~m:22 in
  let path = Filename.temp_file "events" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      let sink = Events.stream ~record_phi:true oc in
      Events.meta sink
        [ ("algo", Metrics.Json.Str "bfs"); ("n", Metrics.Json.Int (Graph.n g)) ];
      let r =
        E.run ~events:sink g (Scheduler.Central Scheduler.Random_daemon) (seed 51)
          ~init:(E.adversarial (seed 52) g)
      in
      close_out oc;
      let contents =
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      match Events.parse contents with
      | Error msg -> Alcotest.failf "parse failed: %s" msg
      | Ok (meta, events) ->
          Alcotest.(check int) "all moves survive the round trip" r.E.steps
            (List.length
               (List.filter
                  (fun (e : Events.event) ->
                    match e.Events.kind with Events.Move _ -> true | _ -> false)
                  events));
          Alcotest.(check bool) "meta header read back" true (meta <> None);
          let report = Explain.analyze meta events in
          Alcotest.(check int) "report counts the moves" r.E.steps report.Explain.total_moves;
          Alcotest.(check int) "rule breakdown sums to the moves" r.E.steps
            (List.fold_left (fun a (_, c) -> a + c) 0 report.Explain.rule_breakdown);
          Alcotest.(check int) "attribution partitions the moves" r.E.steps
            (report.Explain.root_spontaneous + report.Explain.fault_attributed);
          Alcotest.(check bool) "phi milestones recorded" true
            (report.Explain.phi_milestones <> []);
          Alcotest.(check bool) "no faults, no cones" true (report.Explain.cones = []);
          (* both renderers must produce non-trivial output *)
          Alcotest.(check bool) "text renders" true
            (String.length (Explain.to_text report) > 0);
          let html = Explain.to_html report in
          Alcotest.(check bool) "html is self-contained" true
            (String.length html > 0
            && String.sub html 0 15 = "<!DOCTYPE html>"))

(* A meta whose edge list names a node outside [0, n) leaves the trace
   without cone radii; [explain] must not index or allocate by it. *)
let test_explain_bad_meta_edges () =
  List.iter
    (fun meta ->
      let contents =
        String.concat "\n"
          [
            meta;
            {|{"ev":"fault","id":0,"round":0,"node":2}|};
            {|{"ev":"move","id":1,"step":1,"round":0,"node":2,"bits":[4,4],"causes":[0]}|};
          ]
      in
      Alcotest.(check bool) ("validates: " ^ meta) true (validate contents = Ok 2);
      match Events.parse contents with
      | Error msg -> Alcotest.failf "parse failed: %s" msg
      | Ok (header, events) ->
          let report = Explain.analyze header events in
          Alcotest.(check bool) ("no cone radius: " ^ meta) true
            (List.for_all (fun c -> c.Explain.cone_radius = None) report.Explain.cones
            && report.Explain.cones <> []))
    [
      {|{"ev":"meta","edges":[[-1,2,1]]}|};
      {|{"ev":"meta","n":4,"edges":[[0,1000000000,1]]}|};
    ]

(* Ids increase over every event kind, causes name earlier faults,
   churns or moves (never rounds), and every event line is counted. *)
let test_validate_trace_ids () =
  let trace lines = String.concat "\n" ({|{"ev":"meta","algo":"x"}|} :: lines) in
  let rejected lines = Result.is_error (validate (trace lines)) in
  Alcotest.(check bool) "churn repeats id 0" true
    (rejected
       [
         {|{"ev":"churn","id":0,"round":0,"node":1,"op":"join"}|};
         {|{"ev":"churn","id":0,"round":0,"node":2,"op":"join"}|};
       ]);
  Alcotest.(check bool) "cause is a round" true
    (rejected
       [
         {|{"ev":"round","id":0,"round":0,"enabled":1,"bits":[1,1]}|};
         {|{"ev":"move","id":1,"step":1,"round":0,"node":0,"bits":[1,1],"causes":[0]}|};
       ]);
  Alcotest.(check bool) "round id out of line order" true
    (rejected
       [
         {|{"ev":"move","id":1,"step":1,"round":0,"node":0,"bits":[1,1],"causes":[]}|};
         {|{"ev":"round","id":0,"round":1,"enabled":0,"bits":[1,1]}|};
       ]);
  Alcotest.(check bool) "every event line counts" true
    (validate
       (trace
          [
            {|{"ev":"fault","id":0,"round":0,"node":1}|};
            {|{"ev":"churn","id":1,"round":0,"node":2,"op":"join"}|};
            {|{"ev":"move","id":2,"step":1,"round":0,"node":1,"bits":[1,1],"causes":[0,1]}|};
          ])
    = Ok 3)

(* The timeline: move steps strictly increase, rounds never decrease
   (consecutive runs share a boundary round), nodes are non-negative. *)
let test_validate_trace_timeline () =
  let trace lines = String.concat "\n" ({|{"ev":"meta","algo":"x"}|} :: lines) in
  let rejected lines = Result.is_error (validate (trace lines)) in
  Alcotest.(check bool) "repeated step" true
    (rejected
       [
         {|{"ev":"move","id":0,"step":1,"round":0,"node":0,"bits":[1,1],"causes":[]}|};
         {|{"ev":"move","id":1,"step":1,"round":0,"node":1,"bits":[1,1],"causes":[]}|};
       ]);
  Alcotest.(check bool) "decreasing round" true
    (rejected
       [
         {|{"ev":"round","id":0,"round":3,"enabled":1,"bits":[1,2]}|};
         {|{"ev":"fault","id":1,"round":2,"node":0}|};
       ]);
  Alcotest.(check bool) "negative node" true
    (rejected [ {|{"ev":"fault","id":0,"round":0,"node":-5}|} ]);
  Alcotest.(check bool) "a shared boundary round is legal" true
    (validate
       (trace
          [
            {|{"ev":"move","id":0,"step":1,"round":0,"node":0,"bits":[1,1],"causes":[]}|};
            {|{"ev":"round","id":1,"round":1,"enabled":0,"bits":[1,2]}|};
            {|{"ev":"fault","id":2,"round":1,"node":7}|};
            {|{"ev":"round","id":3,"round":1,"enabled":1,"bits":[1,2]}|};
            {|{"ev":"move","id":4,"step":2,"round":1,"node":1,"bits":[1,1],"causes":[2]}|};
          ])
    = Ok 5)

(* [Events.parse] inverts [Events.event_json] and the meta header, for
   all four kinds, with and without the optional fields, on timelines
   the reader accepts. Each kind is drawn as a function of the timeline
   so far: its round steps up from the last one, a move's step too, and
   a move's causes pick earlier faults, churns and moves. *)
let event_gen =
  let open QCheck2.Gen in
  let nat = int_bound 1_000 in
  let opt g = option g in
  let pick sources cs =
    match sources with
    | [] -> []
    | _ -> List.map (fun c -> List.nth sources (c mod List.length sources)) cs
  in
  let kind =
    oneof
      [
        (let* node = nat and* dstep = int_range 1 3 and* dround = int_bound 2 in
         let* rule = opt (oneofl [ "size"; "heavy"; "reparent"; "a \"quoted\" tag" ]) in
         let* bits_before = nat and* bits_after = nat in
         let* causes = list_size (int_bound 4) nat in
         return (fun ~step ~round ~sources ->
             Events.Move
               {
                 node;
                 step = step + dstep;
                 round = round + dround;
                 rule;
                 bits_before;
                 bits_after;
                 causes = pick sources causes;
               }));
        map2
          (fun node dround ~step:_ ~round ~sources:_ ->
            Events.Fault { node; round = round + dround })
          nat (int_bound 2);
        map3
          (fun node dround op ~step:_ ~round ~sources:_ ->
            Events.Churn { node; round = round + dround; op })
          nat (int_bound 2)
          (oneofl [ "join"; "del:2+5"; "add:1+3+7" ]);
        (let* dround = int_bound 2 and* enabled = nat and* mx = nat and* total = nat in
         let* phi = opt nat in
         return (fun ~step:_ ~round ~sources:_ ->
             Events.Round { round = round + dround; enabled; bits = (mx, total); phi }));
      ]
  in
  let* drafts = list_size (int_bound 12) kind in
  let* meta = opt (list_size (int_bound 3) (pair (oneofl [ "algo"; "n"; "seed" ]) nat)) in
  let _, _, _, rev_events =
    List.fold_left
      (fun (step, round, sources, acc) draft ->
        let id = List.length acc in
        let kind = draft ~step ~round ~sources in
        let step, round, sources =
          match kind with
          | Events.Move { step; round; _ } -> (step, round, id :: sources)
          | Events.Fault { round; _ } | Events.Churn { round; _ } ->
              (step, round, id :: sources)
          | Events.Round { round; _ } -> (step, round, sources)
        in
        (step, round, sources, { Events.id; kind } :: acc))
      (0, 0, [], []) drafts
  in
  return
    ( Option.map (List.map (fun (k, v) -> (k, Metrics.Json.Int v))) meta,
      List.rev rev_events )

let prop_parse_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"Events.parse inverts the written lines" event_gen
       (fun (meta, events) ->
         let line j = Metrics.Json.to_string j in
         let lines =
           (match meta with
           | Some fields -> [ line (Metrics.Json.Obj (("ev", Metrics.Json.Str "meta") :: fields)) ]
           | None -> [])
           @ List.map (fun e -> line (Events.event_json e)) events
         in
         Events.parse (String.concat "\n" lines) = Ok (meta, events)))

(* The reader's message for each way a line can be wrong: the declared
   fields first (missing, wrong type, unknown kind, bits not a pair),
   then the timeline. Line 1 is a valid meta header. *)
let test_reader_messages () =
  let move ?(id = 0) ?(step = "1") ?(round = 0) ?(node = 0) ?(bits = "[1,1]")
      ?(causes = "[]") () =
    Printf.sprintf
      {|{"ev":"move","id":%d,"step":%s,"round":%d,"node":%d,"bits":%s,"causes":%s}|} id
      step round node bits causes
  in
  let fault = {|{"ev":"fault","id":0,"round":1,"node":3}|} in
  let not_pair = {|line 2: field "bits" is not an int pair|} in
  List.iter
    (fun (name, lines, expected) ->
      Alcotest.(check (result int string))
        name (Error expected)
        (validate (String.concat "\n" ({|{"ev":"meta","algo":"x"}|} :: lines))))
    [
      ("not JSON", [ "{" ], "line 2: not valid JSON");
      ("no ev", [ {|{"id":0}|} ], {|line 2: missing field "ev"|});
      ("unknown ev", [ {|{"ev":"jump","id":0}|} ], {|line 2: unknown ev "jump"|});
      ( "missing field",
        [ {|{"ev":"fault","id":0,"round":1}|} ],
        {|line 2: missing field "node"|} );
      ("wrong type", [ move ~step:{|"1"|} () ], {|line 2: field "step" is not an int|});
      ( "optional of the wrong type",
        [ {|{"ev":"round","id":0,"round":0,"enabled":0,"bits":[1,1],"phi":"x"}|} ],
        {|line 2: field "phi" is not an int or null|} );
      ("bits of three", [ move ~bits:"[1,1,1]" () ], not_pair);
      ("bits of a string", [ move ~bits:{|[1,"x"]|} () ], not_pair);
      ("bits an int", [ move ~bits:"3" () ], not_pair);
      ( "a string cause",
        [ move ~causes:{|["a"]|} () ],
        {|line 2: field "causes" contains a non-int|} );
      ("repeated id", [ fault; move ~round:1 () ], "line 3: event id 0 not increasing");
      ("repeated step", [ move (); move ~id:1 () ], "line 3: event 1: step 1 after step 1");
      ("decreasing round", [ fault; move ~id:1 () ], "line 3: event 1: round 0 after round 1");
      ("negative node", [ move ~node:(-5) () ], "line 2: event 0: negative node -5");
      ( "unknown cause",
        [ move ~causes:"[7]" () ],
        "line 2: event 0: a cause is no earlier fault, churn or move" );
      ( "a round as cause",
        [
          {|{"ev":"round","id":0,"round":0,"enabled":1,"bits":[1,1]}|};
          move ~id:1 ~causes:"[0]" ();
        ],
        "line 3: event 1: a cause is no earlier fault, churn or move" );
    ]

(* Every line a real run writes re-parses, and re-writes to the same
   bytes: each registered builder under the synchronous, random and
   distributed daemons with faults injected after stabilization, one
   chaos episode with mid-run faults and one serve episode. *)
let rewritten contents =
  match Events.parse contents with
  | Error msg -> Error msg
  | Ok (meta, events) ->
      let line j = Metrics.Json.to_string j ^ "\n" in
      let header =
        match meta with
        | Some f -> [ line (Metrics.Json.Obj (("ev", Metrics.Json.Str "meta") :: f)) ]
        | None -> []
      in
      Ok (String.concat "" (header @ List.map (fun e -> line (Events.event_json e)) events))

let prop_real_traces_rewrite =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:3
       ~name:"real traces re-parse and re-write byte for byte (builders, chaos, serve)"
       QCheck2.Gen.(pair (int_range 3 8) (int_bound 1_000_000))
       (fun (n, sd) ->
         let g = Generators.random_connected (seed sd) ~n ~m:(n - 1 + (n / 2)) in
         let traced run =
           let path = Filename.temp_file "events" ".jsonl" in
           Fun.protect
             ~finally:(fun () -> Sys.remove path)
             (fun () ->
               Out_channel.with_open_bin path (fun oc ->
                   let sink = Events.stream ~record_phi:true oc in
                   Events.meta sink (("n", Metrics.Json.Int n) :: Events.edges_meta g);
                   run sink);
               In_channel.with_open_bin path In_channel.input_all)
         in
         let module B = Repro_campaign.Builders in
         let runs =
           List.concat_map
             (fun b ->
               List.map
                 (fun sched ->
                   traced (fun sink ->
                       ignore
                         (B.run ~events:sink ~faults:2 ~adversarial:true ~max_rounds:300 b g
                            sched (seed (sd + 1)))))
                 [ Scheduler.Synchronous; Central Scheduler.Random_daemon; Distributed 0.5 ])
             B.all
         in
         let chaos =
           traced (fun sink ->
               let module C = Chaos.Make (Mst_builder.P) (Engine.Make (Mst_builder.P)) in
               ignore
                 (C.run_episode ~events:sink g (Central Scheduler.Random_daemon) (seed (sd + 2))
                    (Fault.Plan.make (Fault.Plan.Random_nodes 2)
                       ~timing:(Fault.Plan.Periodic 3))))
         in
         let serve =
           traced (fun sink ->
               match Repro_service.Churn.of_string "flash-crowd:2" with
               | Error m -> failwith m
               | Ok trace ->
                   ignore
                     (B.serve ~events:sink B.bfs g ~sched:(Central Scheduler.Random_daemon)
                        ~fallback:(Distributed 0.5) (seed (sd + 3)) trace))
         in
         List.for_all
           (fun contents -> rewritten contents = Ok contents)
           (chaos :: serve :: runs)))

(* ------------------------------------------------------------------ *)
(* Profiling counters *)

let test_profile_counters () =
  let module E = Engine.Make (Mst_builder.P) in
  let g = Generators.random_connected (seed 60) ~n:12 ~m:20 in
  let p = Profile.create () in
  let r =
    E.run ~profile:p g Scheduler.Synchronous (seed 61) ~init:(E.initial g)
  in
  Alcotest.(check int) "moves = engine steps" r.E.steps p.Profile.moves;
  Alcotest.(check int) "every move is rule-classified" r.E.steps
    (List.fold_left (fun a (_, c) -> a + c) 0 (Profile.rule_counts p));
  Alcotest.(check bool) "guards were evaluated" true (p.Profile.guard_evals > 0);
  Alcotest.(check bool) "hit rate in [0,1]" true
    (Profile.hit_rate p >= 0.0 && Profile.hit_rate p <= 1.0)

let () =
  Alcotest.run "repro_events"
    [
      ( "activation DAG",
        [
          prop_activation_dag;
          Alcotest.test_case "moves fully recorded and rule-tagged" `Quick
            test_moves_are_fully_recorded;
        ] );
      ( "zero-cost-off",
        [
          Alcotest.test_case "tracing is semantically invisible" `Quick
            test_tracing_is_semantically_invisible;
        ] );
      ( "chaos attribution",
        [
          Alcotest.test_case "at-silence: every recovery move attributed" `Quick
            test_chaos_silence_attribution;
          Alcotest.test_case "periodic: attribution starts at the first fault" `Quick
            test_chaos_periodic_attribution;
        ] );
      ( "sinks",
        [
          Alcotest.test_case "ring drops oldest, counts total" `Quick test_ring_capacity;
          Alcotest.test_case "stream -> Explain round trip" `Quick
            test_stream_roundtrip_explain;
          Alcotest.test_case "explain: meta edges outside [0, n)" `Quick
            test_explain_bad_meta_edges;
          Alcotest.test_case "validate: ids over every event kind" `Quick test_validate_trace_ids;
          Alcotest.test_case "validate: steps, rounds and nodes on one timeline" `Quick
            test_validate_trace_timeline;
          prop_parse_roundtrip;
          Alcotest.test_case "reader: one message per malformed line" `Quick
            test_reader_messages;
          prop_real_traces_rewrite;
        ] );
      ( "profile",
        [ Alcotest.test_case "counters account for the run" `Quick test_profile_counters ] );
    ]
