(* Service mode: the churn grammar parses and round-trips, hand-written
   ops are hardened against invalid edits (Topology.check), canned
   generators only ever produce valid sequences, register migration
   follows the swap-rename contract, and full episodes recover under
   churn, count their degradation-ladder rungs, stay bit-deterministic,
   and attribute recovery moves to churn events in the causal trace. *)

open Repro_graph
open Repro_runtime
open Repro_service

let seed i = Random.State.make [| 0x5E7C; i |]

(* ------------------------------------------------------------------ *)
(* Grammar *)

let test_grammar_roundtrip () =
  List.iter
    (fun s ->
      match Churn.of_string s with
      | Error msg -> Alcotest.failf "%S failed to parse: %s" s msg
      | Ok t -> Alcotest.(check string) s s (Churn.name t))
    [
      "add:0+3+9@silence";
      "del:2+5@silence";
      "reweight:1+4+77@every:3";
      "join:1+7@silence";
      "join:0+5+3+6@silence";
      "leave:4@silence";
      "add:0+1+2;del:0+1;leave:3@every:10";
      "flash-crowd:3@every:5";
      "regional:2@silence";
      "maintenance:4@silence";
    ]

let test_grammar_default_timing () =
  match Churn.of_string "flash-crowd:2" with
  | Ok t ->
      Alcotest.(check bool) "silence is the default" true (t.Churn.timing = Churn.At_silence);
      Alcotest.(check string) "name spells it out" "flash-crowd:2@silence" (Churn.name t)
  | Error msg -> Alcotest.failf "parse failed: %s" msg

let test_grammar_rejects () =
  List.iter
    (fun s ->
      match Churn.of_string s with
      | Error _ -> ()
      | Ok t -> Alcotest.failf "%S parsed as %s" s (Churn.name t))
    [
      "";
      "add:1+2" (* wrong arity *);
      "del:1+2+3" (* wrong arity *);
      "del:1+x" (* non-numeric *);
      "join:" (* no anchors *);
      "join:1" (* odd anchor list *);
      "join:1+2+3" (* odd anchor list *);
      "leave:" (* missing node *);
      "flash-crowd:0" (* non-positive count *);
      "regional:-1";
      "maintenance:2@every:0" (* non-positive period *);
      "add:1+2+3@sometimes" (* unknown timing *);
      "demolish:4" (* unknown op *);
    ]

let test_parse_list () =
  match Churn.parse_list "flash-crowd:2, del:0+1@every:4" with
  | Ok [ a; b ] ->
      Alcotest.(check string) "first" "flash-crowd:2@silence" (Churn.name a);
      Alcotest.(check string) "second" "del:0+1@every:4" (Churn.name b)
  | Ok l -> Alcotest.failf "expected 2 traces, got %d" (List.length l)
  | Error msg -> Alcotest.failf "parse failed: %s" msg

(* ------------------------------------------------------------------ *)
(* Input hardening: Topology.check *)

(* Path 0-1-2-3-4: every interior edge is a bridge, so disconnection
   cases are easy to stage. *)
let path5 () = Generators.path (seed 1) ~n:5

let expect_reject what g op =
  match Topology.check g op with
  | Error _ -> ()
  | Ok () -> Alcotest.failf "%s: expected rejection" what

let test_check_rejects_ranges () =
  let g = path5 () in
  expect_reject "add endpoint oob" g (Churn.Add_edge (0, 9, 3));
  expect_reject "add negative endpoint" g (Churn.Add_edge (-1, 2, 3));
  expect_reject "del endpoint oob" g (Churn.Del_edge (5, 0));
  expect_reject "reweight endpoint oob" g (Churn.Reweight (0, 17, 3));
  expect_reject "join anchor oob" g (Churn.Join [ (9, 4) ]);
  expect_reject "leave oob" g (Churn.Leave 5)

let test_check_rejects_edges () =
  let g = path5 () in
  expect_reject "self-loop" g (Churn.Add_edge (2, 2, 3));
  expect_reject "duplicate edge" g (Churn.Add_edge (1, 0, 9));
  expect_reject "del absent edge" g (Churn.Del_edge (0, 2));
  expect_reject "reweight absent edge" g (Churn.Reweight (0, 4, 9))

let test_check_rejects_disconnection () =
  let g = path5 () in
  expect_reject "bridge delete" g (Churn.Del_edge (1, 2));
  expect_reject "cut-vertex leave" g (Churn.Leave 2);
  let lone = Graph.of_edge_list 1 [] in
  expect_reject "last node" lone (Churn.Leave 0)

let test_check_rejects_anchors () =
  let g = path5 () in
  expect_reject "empty anchors" g (Churn.Join []);
  expect_reject "duplicate anchors" g (Churn.Join [ (1, 5); (1, 6) ])

let test_check_accepts_valid () =
  let g = path5 () in
  List.iter
    (fun (what, op) ->
      match Topology.check g op with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s: unexpectedly rejected: %s" what msg)
    [
      ("chord add", Churn.Add_edge (0, 4, 999));
      ("reweight existing", Churn.Reweight (0, 1, 999));
      ("join", Churn.Join [ (2, 999); (4, 998) ]);
      ("leaf leave", Churn.Leave 4);
    ];
  (* a delete is fine once a parallel path exists *)
  let g' = Graph.add_edge g 0 4 999 in
  match Topology.check g' (Churn.Del_edge (1, 2)) with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "cycle delete rejected: %s" msg

(* ------------------------------------------------------------------ *)
(* Canned generators and migration *)

let test_expand_valid_sequences () =
  List.iter
    (fun spec ->
      List.iter
        (fun sd ->
          let rng = seed sd in
          let g0 = Generators.random_connected rng ~n:10 ~m:14 in
          let ops = Churn.expand rng g0 spec in
          Alcotest.(check bool) "non-empty" true (ops <> []);
          let g =
            List.fold_left
              (fun g op ->
                (* each op re-parses as a one-op spec… *)
                (match Churn.of_string (Churn.op_name op) with
                | Ok _ -> ()
                | Error msg -> Alcotest.failf "%s does not re-parse: %s" (Churn.op_name op) msg);
                (* …and applies cleanly in sequence (apply re-checks) *)
                fst (Topology.apply g op))
              g0 ops
          in
          Alcotest.(check bool) "still connected" true (Traversal.is_connected g);
          match spec with
          | Churn.Flash_crowd _ ->
              Alcotest.(check int) "flash crowd returns to n0" (Graph.n g0) (Graph.n g)
          | _ -> ())
        [ 2; 3; 4; 5 ])
    [ Churn.Flash_crowd 3; Churn.Regional 2; Churn.Maintenance 3 ]

let test_migrate_swap_and_grow () =
  let g = Generators.random_connected (seed 6) ~n:8 ~m:12 in
  let states = Array.init 8 (fun i -> 100 + i) in
  (* grow: survivors verbatim, the joiner freshly derived *)
  let g1, mig = Topology.apply g (Churn.Join [ (0, 999) ]) in
  Alcotest.(check bool) "grow migration" true (mig = Topology.Grow 8);
  let s1 = Topology.migrate states mig ~fresh:(fun id -> 1000 + id) in
  Alcotest.(check int) "grown length" 9 (Array.length s1);
  Alcotest.(check int) "joiner fresh" 1008 s1.(8);
  Array.iteri (fun i s -> if i < 8 then Alcotest.(check int) "survivor" (100 + i) s) s1;
  (* leave a removable lower node: node 8 is the highest id, so the swap
     must rename 8's register into the hole *)
  let v =
    match
      List.find_opt
        (fun v -> Topology.check g1 (Churn.Leave v) = Ok ())
        [ 0; 1; 2; 3; 4; 5; 6; 7 ]
    with
    | Some v -> v
    | None -> Alcotest.fail "no removable node below the highest id"
  in
  let g2, mig2 = Topology.apply g1 (Churn.Leave v) in
  ignore g2;
  Alcotest.(check bool) "swap migration" true
    (mig2 = Topology.Swap { removed = v; renamed_from = 8 });
  let s2 = Topology.migrate s1 mig2 ~fresh:(fun id -> 2000 + id) in
  Alcotest.(check int) "shrunk length" 8 (Array.length s2);
  Alcotest.(check int) "highest id renamed into the hole" 1008 s2.(v);
  for i = 0 to 7 do
    if i <> v then Alcotest.(check int) "others untouched" (100 + i) s2.(i)
  done

(* ------------------------------------------------------------------ *)
(* Episodes *)

module SB = Service.Make (Repro_campaign.Builders.Bfs_tree)
module SM = Service.Make (Repro_campaign.Builders.Mst_tree)

let trace_of s =
  match Churn.of_string s with Ok t -> t | Error m -> Alcotest.failf "bad trace: %s" m

let test_episode_flash_crowd () =
  let g = Generators.random_connected (seed 10) ~n:12 ~m:18 in
  let r =
    SB.run ~watch_phi:true g ~sched:(Central Scheduler.Random_daemon)
      ~fallback:(Distributed 0.5) (seed 11) (trace_of "flash-crowd:2")
  in
  Alcotest.(check bool) "recovered" true r.Service.recovered;
  Alcotest.(check string) "verdict" "converged" (Watchdog.verdict_name r.Service.verdict);
  Alcotest.(check int) "2 joins + 2 leaves" 4 (List.length r.Service.events);
  Alcotest.(check int) "back to n0" 12 r.Service.n_final;
  List.iter
    (fun (e : Service.event_outcome) ->
      Alcotest.(check bool) (e.Service.op ^ " recovered") true e.Service.recovered;
      Alcotest.(check bool) (e.Service.op ^ " gap recorded") true (e.Service.gap <> None))
    r.Service.events;
  Alcotest.(check bool) "reads were served" true
    (List.exists (fun (e : Service.event_outcome) -> e.Service.queries > 0) r.Service.events)

let test_episode_deadline_pressure () =
  (* every:1 gives each first recovery attempt a single round — far too
     little for the MST builder, so the ladder must engage (the episode
     still ends recovered: later rungs get the full retry budget). *)
  let g = Generators.random_connected (seed 12) ~n:12 ~m:18 in
  let r =
    SM.run g ~sched:(Central Scheduler.Random_daemon) ~fallback:(Distributed 0.5)
      (seed 13) (trace_of "maintenance:3@every:1")
  in
  Alcotest.(check bool) "recovered despite the deadline" true r.Service.recovered;
  let retries =
    List.fold_left (fun a (e : Service.event_outcome) -> a + e.Service.retries) 0
      r.Service.events
  in
  Alcotest.(check bool) "ladder engaged" true (retries > 0)

let test_episode_deterministic () =
  let run () =
    let rng = seed 14 in
    let g = Generators.random_connected rng ~n:12 ~m:18 in
    SB.run g ~sched:(Central Scheduler.Random_daemon) ~fallback:(Distributed 0.5) rng
      (trace_of "regional:2")
  in
  Alcotest.(check bool) "same seed, same report" true (run () = run ())

let test_episode_sink_draws_no_rng () =
  let run events =
    let rng = seed 15 in
    let g = Generators.random_connected rng ~n:12 ~m:18 in
    SB.run ?events g ~sched:(Central Scheduler.Random_daemon) ~fallback:(Distributed 0.5)
      rng (trace_of "flash-crowd:2")
  in
  let plain = run None in
  let traced = run (Some (Events.ring ())) in
  Alcotest.(check bool) "traced = untraced" true (plain = traced)

(* Stream a full episode, then re-read it through Explain: churn events
   must be present, pass trace validation (monotone ids, causes
   precede), and anchor causal cones that attribute recovery moves. *)
let test_episode_churn_attribution () =
  let file = Filename.temp_file "service" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      let rng = seed 16 in
      let g = Generators.random_connected rng ~n:12 ~m:18 in
      let r =
        let oc = open_out file in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () ->
            let sink = Events.stream ~record_phi:true oc in
            Events.meta sink
              [
                ("algo", Metrics.Json.Str "bfs");
                ( "edges",
                  Metrics.Json.List
                    (Array.to_list (Graph.edges g)
                    |> List.map (fun (e : Graph.Edge.t) ->
                           Metrics.Json.List
                             [
                               Metrics.Json.Int e.u;
                               Metrics.Json.Int e.v;
                               Metrics.Json.Int e.w;
                             ])) );
              ];
            SB.run ~events:sink g ~sched:(Central Scheduler.Random_daemon)
              ~fallback:(Distributed 0.5) rng (trace_of "flash-crowd:2"))
      in
      Alcotest.(check bool) "episode recovered" true r.Service.recovered;
      let contents =
        let ic = open_in_bin file in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      (match Schema.validate_trace contents with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "trace validation failed: %s" msg);
      match Events.parse contents with
      | Error msg -> Alcotest.failf "trace parse failed: %s" msg
      | Ok (meta, events) ->
          let churns =
            List.filter
              (fun (e : Events.event) ->
                match e.Events.kind with Events.Churn _ -> true | _ -> false)
              events
          in
          Alcotest.(check bool) "churn events present" true (churns <> []);
          let report = Explain.analyze meta events in
          Alcotest.(check int) "report counts them" (List.length churns)
            report.Explain.total_churns;
          Alcotest.(check bool) "churn cones anchored" true (report.Explain.cones <> []);
          Alcotest.(check bool) "recovery moves attributed to the edits" true
            (report.Explain.fault_attributed > 0);
          Alcotest.(check bool) "the text renderer mentions churn" true
            (let txt = Explain.to_text report in
             let re = "churn" in
             let found = ref false in
             String.iteri
               (fun i _ ->
                 if
                   i + String.length re <= String.length txt
                   && String.sub txt i (String.length re) = re
                 then found := true)
               txt;
             !found))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "repro_service"
    [
      ( "grammar",
        [
          Alcotest.test_case "traces round-trip through name" `Quick test_grammar_roundtrip;
          Alcotest.test_case "silence is the default timing" `Quick
            test_grammar_default_timing;
          Alcotest.test_case "malformed traces are rejected" `Quick test_grammar_rejects;
          Alcotest.test_case "comma-separated lists parse" `Quick test_parse_list;
        ] );
      ( "hardening",
        [
          Alcotest.test_case "out-of-range endpoints rejected" `Quick
            test_check_rejects_ranges;
          Alcotest.test_case "duplicate/absent edges rejected" `Quick
            test_check_rejects_edges;
          Alcotest.test_case "disconnecting edits rejected" `Quick
            test_check_rejects_disconnection;
          Alcotest.test_case "bad anchor lists rejected" `Quick test_check_rejects_anchors;
          Alcotest.test_case "valid edits pass" `Quick test_check_accepts_valid;
        ] );
      ( "churn",
        [
          Alcotest.test_case "canned generators emit valid sequences" `Quick
            test_expand_valid_sequences;
          Alcotest.test_case "migration: grow appends, leave swap-renames" `Quick
            test_migrate_swap_and_grow;
        ] );
      ( "episodes",
        [
          Alcotest.test_case "flash crowd: recover, serve, return to n0" `Quick
            test_episode_flash_crowd;
          Alcotest.test_case "deadline pressure engages the ladder" `Quick
            test_episode_deadline_pressure;
          Alcotest.test_case "episodes are deterministic" `Quick test_episode_deterministic;
          Alcotest.test_case "event sinks draw no randomness" `Quick
            test_episode_sink_draws_no_rng;
          Alcotest.test_case "churn events anchor causal attribution" `Quick
            test_episode_churn_attribution;
        ] );
    ]
