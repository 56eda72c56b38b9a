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
      match Events.parse contents with
      | Error msg -> Alcotest.failf "trace validation failed: %s" msg
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

(* ------------------------------------------------------------------ *)
(* Churn provenance and the warm start *)

(* [Some op] of the given kind that {!Topology.check} accepts on [g],
   drawn at random; [None] when there is none. *)
let pick_op rng g kind =
  let n = Graph.n g in
  let shuffled l =
    List.map snd (List.sort compare (List.map (fun x -> (Random.State.bits rng, x)) l))
  in
  let first ops = List.find_opt (fun op -> Topology.check g op = Ok ()) (shuffled ops) in
  let edges = Array.to_list (Graph.edges g) in
  let weight () = 1 + Random.State.int rng 9 in
  match kind with
  | `Add ->
      first
        (List.concat_map
           (fun u -> List.init n (fun v -> Churn.Add_edge (u, v, weight ())))
           (List.init n Fun.id))
  | `Del -> first (List.map (fun (e : Graph.Edge.t) -> Churn.Del_edge (e.u, e.v)) edges)
  | `Reweight ->
      first (List.map (fun (e : Graph.Edge.t) -> Churn.Reweight (e.u, e.v, weight ())) edges)
  | `Join ->
      let anchors = List.sort_uniq compare (List.init 2 (fun _ -> Random.State.int rng n)) in
      first [ Churn.Join (List.map (fun a -> (a, weight ())) anchors) ]
  | `Leave_renaming -> first (List.init (n - 1) (fun v -> Churn.Leave v))
  | `Leave_last -> first [ Churn.Leave (n - 1) ]

let op_kinds = [ `Add; `Del; `Reweight; `Join; `Leave_renaming; `Leave_last ]

(* From a silent legal configuration in [bank] on [g], after edit [op]:
   the warm-started enabled set (the seeds' guards,
   [Engine_packed.seeds]) equals the full scan's; the warm-started
   recovery is the cold one (counts and final bank); and its local
   legality verdict equals the full [is_legal], kept here as the
   oracle. Returns the full scan's enabled set and the affected set. *)
let check_warm_edit (type s) (module B : Service.PACKED_TREE_PROTOCOL with type state = s)
    ~sd rng g bank op =
  let module Ep = Engine_packed.Make (B) in
  let module Eb = Engine.Make (B) in
  let boxed bank =
    let n = Array.length bank.(0) in
    Array.init n (fun v -> B.unpack ~n (Array.map (fun lane -> lane.(v)) bank))
  in
  let ids l = String.concat "," (List.map string_of_int l) in
  let g', mig = Topology.apply g op in
  let n' = Graph.n g' in
  let edited =
    Topology.migrate_bank bank mig ~fresh:(fun id -> B.pack ~n:n' (B.random_state rng g' id))
  in
  let affected = Topology.affected g op mig in
  let seeds = Ep.seeds edited g' ~old_n:(Graph.n g) affected in
  let states = boxed edited in
  let warm =
    List.filter (fun v -> B.step (Eb.view g' states v) <> None) (Array.to_list seeds)
  in
  let full = Eb.enabled g' states in
  if warm <> full then
    QCheck2.Test.fail_reportf "%s: warm enabled set [%s] <> full scan [%s]"
      (Churn.op_name op) (ids warm) (ids full);
  List.iter
    (fun sched ->
      let draws = Random.State.make [| sd; 6 |] in
      let cold_bank = Array.map Array.copy edited in
      let warm_bank = Array.map Array.copy edited in
      let cold = Ep.run_bank g' sched (Random.State.copy draws) ~bank:cold_bank in
      let hot = Ep.run_bank ~warm:seeds g' sched (Random.State.copy draws) ~bank:warm_bank in
      if cold <> hot || cold_bank <> warm_bank then
        QCheck2.Test.fail_reportf "%s: warm recovery diverged from the cold one"
          (Churn.op_name op);
      if hot.Ep.legal <> B.is_legal g' (boxed warm_bank) then
        QCheck2.Test.fail_reportf "%s: local legality %b <> full is_legal" (Churn.op_name op)
          hot.Ep.legal)
    [ Scheduler.Synchronous; Scheduler.Central Scheduler.Random_daemon ];
  (full, affected)

(* [check_warm_edit] after every edit kind, from the silent legal
   configuration an adversarial start stabilizes to. Paths and
   lollipops put registers at the TTL bound. *)
let warm_start_exact (type s) (module B : Service.PACKED_TREE_PROTOCOL with type state = s)
    (sd, shape, n) =
  let module Ep = Engine_packed.Make (B) in
  let rng = Random.State.make [| sd; 5 |] in
  let g =
    match shape with
    | 0 -> Generators.path rng ~n
    | 1 -> Generators.lollipop rng ~clique:3 ~tail:(n - 3)
    | _ -> Generators.random_connected rng ~n ~m:(n - 1 + Random.State.int rng n)
  in
  let bank = Ep.pack_bank ~n (Ep.adversarial rng g) in
  let base = Ep.run_bank g Scheduler.Synchronous rng ~bank in
  if not (base.Ep.silent && base.Ep.legal) then
    QCheck2.Test.fail_reportf "base run did not stabilize (n=%d)" n;
  List.iter
    (fun kind ->
      Option.iter
        (fun op -> ignore (check_warm_edit (module B) ~sd rng g bank op))
        (pick_op rng g kind))
    op_kinds;
  true

(* The TTL test biting far from the edit. The shortest-path tree of
   this graph is the path 0-1-5-2-3-4 (the edge {1,2} is heavy), so node
   4 sits at hops 5 = n - 1. When node 5 leaves (n: 6 -> 5), node 3 at
   hops 4 fails the test [hops + 1 <= n - 1], so its child 4 — not a
   neighbour of the leaver — is enabled: only the declared n-sensitivity
   puts it among the seeds. *)
let test_warm_start_ttl () =
  let module Ep = Engine_packed.Make (Repro_campaign.Builders.Spt_tree) in
  let g =
    Graph.of_edges 6 [ (0, 1, 1); (1, 5, 1); (5, 2, 1); (2, 3, 1); (3, 4, 1); (1, 2, 100) ]
  in
  let rng = seed 40 in
  let bank = Ep.pack_bank ~n:6 (Ep.adversarial rng g) in
  let base = Ep.run_bank g Scheduler.Synchronous rng ~bank in
  Alcotest.(check bool) "base silent and legal" true (base.Ep.silent && base.Ep.legal);
  let node4 = Repro_core.Spt_builder.Packed.unpack ~n:6 (Array.map (fun lane -> lane.(4)) bank) in
  Alcotest.(check int) "node 4 at hops n - 1" 5 node4.Repro_core.Spt_builder.hops;
  let full, affected =
    check_warm_edit (module Repro_campaign.Builders.Spt_tree) ~sd:40 rng g bank
      (Churn.Leave 5)
  in
  Alcotest.(check bool) "node 4 is enabled" true (List.mem 4 full);
  Alcotest.(check bool) "node 4 is not next to the edit" false (List.mem 4 affected)

let gen_warm =
  QCheck2.Gen.(
    let* sd = int_bound 1_000_000 in
    let* shape = int_bound 2 in
    let* n = int_range 5 16 in
    return (sd, shape, n))

let warm_props =
  let prop name m =
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:60 ~name gen_warm (warm_start_exact m))
  in
  [
    prop "bfs: warm start = full scan, local legality = is_legal"
      (module Repro_campaign.Builders.Bfs_tree);
    prop "spt: warm start = full scan, local legality = is_legal"
      (module Repro_campaign.Builders.Spt_tree);
    prop "adhoc-bfs: warm start = full scan, local legality = is_legal"
      (module Repro_campaign.Builders.Adhoc_tree);
  ]

(* The packed service commits a snapshot's parents by copying the
   builder's [parent_lane]. From a stabilized bank, after the migration
   of every edit kind and after the recovery that follows, that lane
   must be [parent_of] of every unpacked register. *)
let parent_lane_exact (type s) (module B : Service.PACKED_TREE_PROTOCOL with type state = s)
    (sd, shape, n) =
  let module Ep = Engine_packed.Make (B) in
  let rng = Random.State.make [| sd; 8 |] in
  let g =
    match shape with
    | 0 -> Generators.path rng ~n
    | 1 -> Generators.lollipop rng ~clique:3 ~tail:(n - 3)
    | _ -> Generators.random_connected rng ~n ~m:(n - 1 + Random.State.int rng n)
  in
  let check what bank =
    let n = Array.length bank.(0) in
    let unpacked =
      Array.init n (fun v -> B.parent_of (B.unpack ~n (Array.map (fun lane -> lane.(v)) bank)))
    in
    if bank.(B.parent_lane) <> unpacked then
      QCheck2.Test.fail_reportf "parent lane <> parent_of after %s (n=%d)" what n
  in
  let bank = Ep.pack_bank ~n (Ep.adversarial rng g) in
  check "boot" bank;
  ignore (Ep.run_bank g Scheduler.Synchronous rng ~bank);
  check "stabilization" bank;
  List.iter
    (fun kind ->
      Option.iter
        (fun op ->
          let g', mig = Topology.apply g op in
          let n' = Graph.n g' in
          let edited =
            Topology.migrate_bank bank mig ~fresh:(fun id ->
                B.pack ~n:n' (B.random_state rng g' id))
          in
          check ("the migration of " ^ Churn.op_name op) edited;
          ignore (Ep.run_bank g' Scheduler.Synchronous rng ~bank:edited);
          check ("the recovery from " ^ Churn.op_name op) edited)
        (pick_op rng g kind))
    op_kinds;
  true

let projection_props =
  let prop name m =
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:30 ~name gen_warm (parent_lane_exact m))
  in
  [
    prop "bfs: parent lane after every edit" (module Repro_campaign.Builders.Bfs_tree);
    prop "spt: parent lane after every edit" (module Repro_campaign.Builders.Spt_tree);
    prop "adhoc-bfs: parent lane after every edit"
      (module Repro_campaign.Builders.Adhoc_tree);
  ]

(* After an at-silence edit every recovery move is caused, transitively,
   by one of the edit's churn events: the pre-edit configuration was
   silent, so only a node whose view the edit changed can move first.
   Node 14 hangs off node 15 alone, so it is a child of 15 in every
   spanning tree: a renaming leave moves 15, the highest id, into the
   hole while it has a child whose parent pointer now dangles. *)
let test_churn_moves_all_attributed () =
  let base = Generators.random_connected (seed 30) ~n:14 ~m:22 in
  let edges =
    List.map (fun (e : Graph.Edge.t) -> (e.u, e.v, e.w)) (Array.to_list (Graph.edges base))
    @ [ (15, 3, 2); (15, 9, 5); (14, 15, 1) ]
  in
  let g = Graph.of_edges 16 edges in
  let rng = seed 31 in
  let ops =
    List.filter_map (pick_op rng g) [ `Add; `Del; `Reweight; `Join; `Leave_renaming ]
  in
  Alcotest.(check int) "one op of every kind" 5 (List.length ops);
  let moves = ref 0 in
  List.iter
    (fun b ->
      List.iter
        (fun op ->
          let sink = Events.ring ~capacity:1_000_000 () in
          let trace = { Churn.spec = Churn.Ops [ op ]; timing = Churn.At_silence } in
          let r =
            Repro_campaign.Builders.serve ~events:sink b g ~sched:Scheduler.Synchronous
              ~fallback:(Distributed 0.5) (seed 32) trace
          in
          let what = Repro_campaign.Builders.name b ^ " after " ^ Churn.op_name op in
          Alcotest.(check bool) (what ^ ": recovered") true r.Service.recovered;
          let causal = Hashtbl.create 64 in
          let after_edit = ref false and spontaneous = ref [] in
          List.iter
            (fun (ev : Events.event) ->
              match ev.Events.kind with
              | Events.Churn _ ->
                  after_edit := true;
                  Hashtbl.replace causal ev.Events.id ()
              | Events.Move { node; causes; _ } when !after_edit ->
                  incr moves;
                  if List.exists (Hashtbl.mem causal) causes then
                    Hashtbl.replace causal ev.Events.id ()
                  else spontaneous := node :: !spontaneous
              | _ -> ())
            (Events.events sink);
          if !spontaneous <> [] then
            Alcotest.failf "%s: root-spontaneous recovery moves at nodes [%s]" what
              (String.concat "," (List.map string_of_int (List.rev !spontaneous))))
        ops)
    Repro_campaign.Builders.[ bfs; spt ];
  Alcotest.(check bool) "recovery moves happened" true (!moves > 0)

(* ------------------------------------------------------------------ *)
(* Crash containment: a guard that raises once, during the first
   recovery of a flash crowd. The driver counts the crash,
   retries the segment from the registers it started from, and the
   episode still recovers; the streamed trace stays on one valid
   timeline (the retry continues after the crashed segment's rounds
   and steps instead of reusing them). Each backend's graph is picked
   so that the first recovery spans several rounds: the crash then
   comes after two round boundaries at least, and the episode's
   rounds show whether the crashed segment's rounds were counted. *)

let guard_calls = ref 0
let crash_at = ref 0

(* The guard calls of the first recovery of a flash crowd: the first
   run of calls on views of [recovery_n] nodes (n0 + 1, the first
   join). *)
let recovery_n = ref 0
let span = ref None
let span_closed = ref false

let guard_tick n =
  incr guard_calls;
  (if not !span_closed then
     match !span with
     | None -> if n = !recovery_n then span := Some (!guard_calls, !guard_calls)
     | Some (first, _) ->
         if n = !recovery_n then span := Some (first, !guard_calls) else span_closed := true);
  if !guard_calls = !crash_at then failwith "guard crash"

module Crashing_mst = Service.Make (struct
  include Repro_campaign.Builders.Mst_tree

  let step v =
    guard_tick v.View.n;
    step v
end)

module Crashing_bfs = Service.Make_packed (struct
  include Repro_campaign.Builders.Bfs_tree

  let step_packed pv =
    guard_tick pv.Pview.n;
    step_packed pv
end)

let contained_crash ~graph_seed run () =
  let n = 10 in
  let g = Generators.random_connected (seed graph_seed) ~n ~m:16 in
  let episode events =
    guard_calls := 0;
    run ~events g ~sched:(Scheduler.Central Scheduler.Random_daemon)
      ~fallback:(Scheduler.Distributed 0.5)
      (seed (graph_seed + 1))
      (trace_of "flash-crowd:2")
  in
  (* A clean run locates the first recovery's guard calls; the guard
     then raises at the last of them, after the segment's moves. *)
  recovery_n := n + 1;
  span := None;
  span_closed := false;
  crash_at := 0;
  let clean = episode (Events.ring ()) in
  (match !span with
  | Some (first, last) when first < last -> crash_at := last
  | _ -> Alcotest.fail "no first recovery");
  (* The last guard call of a recovery of [gap] rounds comes after its
     boundaries 0 .. gap - 1. *)
  (match (List.hd clean.Service.events).Service.gap with
  | Some gap when gap >= 2 -> ()
  | _ -> Alcotest.fail "the first recovery ends before its second round boundary");
  let file = Filename.temp_file "crash" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      crash_at := 0;
      Sys.remove file)
    (fun () ->
      let r =
        let oc = open_out file in
        Fun.protect ~finally:(fun () -> close_out oc) (fun () -> episode (Events.stream oc))
      in
      let crashes =
        List.fold_left (fun acc (e : Service.event_outcome) -> acc + e.Service.crashes) 0
          r.Service.events
      in
      Alcotest.(check int) "one contained crash" 1 crashes;
      Alcotest.(check bool) "episode recovered" true r.Service.recovered;
      let contents = In_channel.with_open_bin file In_channel.input_all in
      match Events.parse contents with
      | Error msg -> Alcotest.failf "trace validation failed: %s" msg
      | Ok (_, events) ->
          (* The crashed segment's rounds count, its rolled-back writes
             do not: up to the crash it replays the clean run's first
             recovery, whose moves the trace still shows. *)
          let last_round, moves =
            List.fold_left
              (fun (r, m) (e : Events.event) ->
                match e.Events.kind with
                | Events.Round { round; _ } -> (round, m)
                | Events.Move _ -> (r, m + 1)
                | Events.Fault _ | Events.Churn _ -> (r, m))
              (0, 0) events
          in
          let crashed = (List.hd clean.Service.events).Service.steps in
          Alcotest.(check int) "rounds = the trace's last round" last_round r.Service.rounds;
          Alcotest.(check int) "steps = the trace's moves less the crashed segment's"
            (moves - crashed) r.Service.steps)

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
          Alcotest.test_case "at-silence churn: every recovery move attributed" `Quick
            test_churn_moves_all_attributed;
          Alcotest.test_case "contained crash, boxed mst" `Quick
            (contained_crash ~graph_seed:40 (fun ~events g ->
                 Crashing_mst.run ~events g));
          Alcotest.test_case "contained crash, packed bfs" `Quick
            (contained_crash ~graph_seed:56 (fun ~events g ->
                 Crashing_bfs.run ~events g));
        ] );
      ( "warmstart",
        warm_props
        @ [
            Alcotest.test_case "spt: a leave flips the TTL test far from the edit" `Quick
              test_warm_start_ttl;
          ] );
      ("lanes", projection_props);
    ]
