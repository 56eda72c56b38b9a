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
    C.run_episode ~max_injections:3 ~watch_phi:true ~events:sink g
      (Central Scheduler.Random_daemon) (seed 43)
      (Fault.Plan.make (Fault.Plan.Random_nodes 2) ~timing:(Fault.Plan.Periodic 4))
  in
  Alcotest.(check bool) "recovered" true e.C.recovered;
  let evs = Events.events sink in
  Alcotest.(check bool) "DAG invariant holds across the episode" true (dag_ok g evs);
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
      match Explain.parse contents with
      | Error msg -> Alcotest.failf "parse failed: %s" msg
      | Ok t ->
          Alcotest.(check int) "all moves survive the round trip" r.E.steps
            (List.length t.Explain.moves);
          Alcotest.(check bool) "meta header read back" true (t.Explain.meta <> None);
          let report = Explain.analyze t in
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
      Alcotest.(check bool) ("validates: " ^ meta) true (Schema.validate_trace contents = Ok 2);
      match Explain.parse contents with
      | Error msg -> Alcotest.failf "parse failed: %s" msg
      | Ok t ->
          let report = Explain.analyze t in
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
  let rejected lines = Result.is_error (Schema.validate_trace (trace lines)) in
  Alcotest.(check bool) "churn repeats id 0" true
    (rejected
       [
         {|{"ev":"churn","id":0,"round":0,"node":1,"op":"join"}|};
         {|{"ev":"churn","id":0,"round":0,"node":2,"op":"join"}|};
       ]);
  Alcotest.(check bool) "cause is a round" true
    (rejected
       [
         {|{"ev":"round","id":0,"round":0,"enabled":1}|};
         {|{"ev":"move","id":1,"step":1,"round":0,"node":0,"bits":[1,1],"causes":[0]}|};
       ]);
  Alcotest.(check bool) "round id out of line order" true
    (rejected
       [
         {|{"ev":"move","id":1,"step":1,"round":0,"node":0,"bits":[1,1],"causes":[]}|};
         {|{"ev":"round","id":0,"round":1,"enabled":0}|};
       ]);
  Alcotest.(check bool) "every event line counts" true
    (Schema.validate_trace
       (trace
          [
            {|{"ev":"fault","id":0,"round":0,"node":1}|};
            {|{"ev":"churn","id":1,"round":0,"node":2,"op":"join"}|};
            {|{"ev":"move","id":2,"step":1,"round":0,"node":1,"bits":[1,1],"causes":[0,1]}|};
          ])
    = Ok 3)

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
    (Profile.hit_rate p >= 0.0 && Profile.hit_rate p <= 1.0);
  let m = Metrics.create () in
  Profile.export p m;
  Alcotest.(check int) "exported into the metrics registry" r.E.steps
    (Metrics.counter_value (Metrics.counter m "engine.moves"))

let () =
  QCheck_base_runner.set_seed 20260704;
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
        ] );
      ( "profile",
        [ Alcotest.test_case "counters account for the run" `Quick test_profile_counters ] );
    ]
