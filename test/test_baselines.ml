(* Tests for repro_baselines: the ad-hoc rooted BFS, the compact
   uncertified Borůvka (and its self-stabilization failure mode — the
   point of experiment E9), and the full-information silent baseline. *)

open Repro_graph
open Repro_runtime
open Repro_baselines

let seed i = Random.State.make [| 0xBA5E; i |]

let sample_graph i =
  let st = seed i in
  Generators.random_connected st ~n:(8 + (i mod 8)) ~m:(14 + (2 * i))

(* ------------------------------------------------------------------ *)
(* Ad-hoc rooted BFS *)

module AE = Adhoc_bfs.Engine

let test_adhoc_bfs_converges () =
  List.iter
    (fun i ->
      let g = sample_graph i in
      let st = seed (10 + i) in
      List.iter
        (fun sched ->
          let r = AE.run g sched st ~init:(AE.adversarial st g) in
          Alcotest.(check bool) "silent" true r.AE.silent;
          Alcotest.(check bool) "legal" true r.AE.legal)
        [ Scheduler.Synchronous; Scheduler.Central Scheduler.Random_daemon;
          Scheduler.Central Scheduler.Lifo_adversary ])
    [ 0; 1; 2; 3 ]

let test_adhoc_bfs_distances () =
  let st = seed 20 in
  let g = Generators.torus st ~rows:4 ~cols:4 in
  let r = AE.run g Scheduler.Synchronous st ~init:(AE.initial g) in
  let d = Traversal.bfs_distances g ~src:0 in
  Array.iteri
    (fun v (s : Adhoc_bfs.state) ->
      Alcotest.(check int) (Printf.sprintf "d(%d)" v) d.(v) s.Adhoc_bfs.dist)
    r.AE.states

let test_adhoc_bfs_fault_recovery () =
  let g = sample_graph 4 in
  let st = seed 21 in
  let r = AE.run g Scheduler.Synchronous st ~init:(AE.initial g) in
  let corrupted = Fault.corrupt st ~random_state:Adhoc_bfs.P.random_state g r.AE.states ~k:4 in
  let r2 = AE.run g (Scheduler.Central Scheduler.Random_daemon) st ~init:corrupted in
  Alcotest.(check bool) "recovers" true (r2.AE.silent && r2.AE.legal)

(* ------------------------------------------------------------------ *)
(* Compact uncertified Borůvka *)

module CE = Compact_mst.Engine

let test_compact_mst_from_clean () =
  (* From the boot configuration the merging is race-free enough to end
     on a silent spanning tree; on most instances it is the MST, but
     without certificates there is no guarantee — we assert the
     structure, not optimality. *)
  List.iter
    (fun i ->
      let g = sample_graph i in
      let st = seed (30 + i) in
      let r = CE.run g Scheduler.Synchronous st ~init:(CE.initial g) in
      Alcotest.(check bool) "silent" true r.CE.silent;
      let parent = Array.map (fun (s : Compact_mst.state) -> s.Compact_mst.parent) r.CE.states in
      Alcotest.(check bool) "spanning tree" true (Tree.check_parents ~root:0 parent);
      let t = Tree.of_parents ~root:0 parent in
      Alcotest.(check bool) "weight >= MST" true (Tree.weight t g >= Mst.mst_weight g))
    [ 0; 1; 2; 3; 4; 5 ]

let test_compact_mst_small_bits () =
  let g = sample_graph 2 in
  let st = seed 40 in
  let r = CE.run g Scheduler.Synchronous st ~init:(CE.initial g) in
  (* O(log n) bits: far below the MST builder's O(log^2 n) certificate. *)
  Alcotest.(check bool) "compact registers" true (r.CE.max_bits < 100)

let test_compact_mst_failure_mode () =
  (* The headline: from adversarial configurations the protocol can fall
     silent on an illegal configuration. We only require that the
     failure is *observable* over a batch of trials (rate > 0) — the
     certificates of the paper exist precisely to rule this out. *)
  let st = seed 50 in
  let g = Generators.gnp st ~n:12 ~p:0.4 in
  let rate = Compact_mst.failure_rate st g ~trials:30 in
  Alcotest.(check bool) "silent-but-wrong occurs" true (rate > 0.0)

(* ------------------------------------------------------------------ *)
(* Full-information baseline *)

let test_fullinfo_mst () =
  List.iter
    (fun i ->
      let g = sample_graph i in
      let st = seed (60 + i) in
      let module FE = Fullinfo.Mst_instance.Engine in
      let r = FE.run g Scheduler.Synchronous st ~init:(FE.initial g) in
      Alcotest.(check bool) "silent" true r.FE.silent;
      Alcotest.(check bool) "legal (MST)" true r.FE.legal)
    [ 0; 1; 2 ]

let test_fullinfo_mst_adversarial () =
  let g = sample_graph 1 in
  let st = seed 70 in
  let module FE = Fullinfo.Mst_instance.Engine in
  let r = FE.run g (Scheduler.Central Scheduler.Random_daemon) st ~init:(FE.adversarial st g) in
  Alcotest.(check bool) "silent" true r.FE.silent;
  Alcotest.(check bool) "legal" true r.FE.legal

let test_fullinfo_mdst () =
  List.iter
    (fun i ->
      let g = sample_graph i in
      let st = seed (80 + i) in
      let module FE = Fullinfo.Mdst_instance.Engine in
      let r = FE.run g Scheduler.Synchronous st ~init:(FE.initial g) in
      Alcotest.(check bool) "silent" true r.FE.silent;
      Alcotest.(check bool) "legal (FR tree)" true r.FE.legal)
    [ 0; 1; 2 ]

let test_fullinfo_registers_are_huge () =
  (* The space separation of E9: full-information registers hold the
     whole topology (Θ(m log n) bits) and outgrow the certificate-based
     ones as the network grows. *)
  let st = seed 90 in
  let g = Generators.random_connected st ~n:32 ~m:96 in
  let module FE = Fullinfo.Mst_instance.Engine in
  let rf = FE.run g Scheduler.Synchronous st ~init:(FE.initial g) in
  let module ME = Repro_core.Mst_builder.Engine in
  let rm = ME.run g Scheduler.Synchronous st ~init:(ME.initial g) in
  Alcotest.(check bool)
    (Printf.sprintf "fullinfo (%d bits) >> pls (%d bits)" rf.FE.max_bits rm.ME.max_bits)
    true
    (rf.FE.max_bits > 2 * rm.ME.max_bits)

let test_fullinfo_plan_follow () =
  (* After stabilization the tree is exactly the desired one. *)
  let g = sample_graph 5 in
  let st = seed 91 in
  let module FE = Fullinfo.Mst_instance.Engine in
  let r = FE.run g Scheduler.Synchronous st ~init:(FE.initial g) in
  match Fullinfo.Mst_instance.tree_of g r.FE.states with
  | Some t -> Alcotest.(check bool) "tree = MST" true (Mst.is_mst g t)
  | None -> Alcotest.fail "no tree"

(* ------------------------------------------------------------------ *)
(* Properties *)

let prop name count gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

let gen_graph =
  QCheck2.Gen.(
    let* n = int_range 4 16 in
    let* extra = int_range 1 n in
    let* s = int_bound 1_000_000 in
    return (s, Generators.random_connected (Random.State.make [| s; 31 |]) ~n ~m:(n - 1 + extra)))

let prop_adhoc_self_stabilizes =
  prop "adhoc BFS self-stabilizes" 30 gen_graph (fun (s, g) ->
      let st = Random.State.make [| s; 32 |] in
      let r = AE.run g (Scheduler.Central Scheduler.Random_daemon) st ~init:(AE.adversarial st g) in
      r.AE.silent && r.AE.legal)

let prop_compact_silent_tree_from_clean =
  prop "compact Borůvka reaches a silent spanning tree from boot" 30 gen_graph
    (fun (s, g) ->
      let st = Random.State.make [| s; 33 |] in
      let r = CE.run g Scheduler.Synchronous st ~init:(CE.initial g) in
      r.CE.silent
      &&
      let parent = Array.map (fun (x : Compact_mst.state) -> x.Compact_mst.parent) r.CE.states in
      Tree.check_parents ~root:0 parent)

let prop_fullinfo_mst_self_stabilizes =
  prop "fullinfo MST self-stabilizes" 15 gen_graph (fun (s, g) ->
      let st = Random.State.make [| s; 34 |] in
      let module FE = Fullinfo.Mst_instance.Engine in
      let r = FE.run g Scheduler.Synchronous st ~init:(FE.adversarial st g) in
      r.FE.silent && r.FE.legal)

let () =
  Alcotest.run "repro_baselines"
    [
      ( "adhoc_bfs",
        [
          Alcotest.test_case "converges" `Quick test_adhoc_bfs_converges;
          Alcotest.test_case "distances" `Quick test_adhoc_bfs_distances;
          Alcotest.test_case "fault recovery" `Quick test_adhoc_bfs_fault_recovery;
        ] );
      ( "compact_mst",
        [
          Alcotest.test_case "silent tree from clean" `Quick test_compact_mst_from_clean;
          Alcotest.test_case "O(log n) bits" `Quick test_compact_mst_small_bits;
          Alcotest.test_case "silent-but-wrong from garbage" `Quick test_compact_mst_failure_mode;
        ] );
      ( "fullinfo",
        [
          Alcotest.test_case "mst" `Quick test_fullinfo_mst;
          Alcotest.test_case "mst adversarial" `Quick test_fullinfo_mst_adversarial;
          Alcotest.test_case "mdst" `Quick test_fullinfo_mdst;
          Alcotest.test_case "huge registers" `Quick test_fullinfo_registers_are_huge;
          Alcotest.test_case "plan followed" `Quick test_fullinfo_plan_follow;
        ] );
      ( "properties",
        [
          prop_adhoc_self_stabilizes;
          prop_compact_silent_tree_from_clean;
          prop_fullinfo_mst_self_stabilizes;
        ] );
    ]
