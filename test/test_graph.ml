(* Tests for the repro_graph substrate: graphs, union-find, traversals,
   rooted trees, generators, reference MST, and reference MDST. *)

open Repro_graph
module E = Graph.Edge

let seed i = Random.State.make [| 0xC0FFEE; i |]

(* A small fixed graph used across cases:

      0 --1-- 1
      | \     |
      7  3    2
      |   \   |
      3 --5-- 2
       \      |
        4     6
         \    |
          4---+          *)
let fixture () =
  Graph.of_edges 5
    [ (0, 1, 1); (1, 2, 2); (0, 2, 3); (3, 4, 4); (2, 3, 5); (2, 4, 6); (0, 3, 7) ]

(* ------------------------------------------------------------------ *)
(* Graph *)

let test_graph_basics () =
  let g = fixture () in
  Alcotest.(check int) "n" 5 (Graph.n g);
  Alcotest.(check int) "m" 7 (Graph.m g);
  Alcotest.(check int) "deg 0" 3 (Graph.degree g 0);
  Alcotest.(check int) "deg 4" 2 (Graph.degree g 4);
  Alcotest.(check int) "max degree" 4 (Graph.max_degree g);
  Alcotest.(check bool) "has 0-1" true (Graph.has_edge g 0 1);
  Alcotest.(check bool) "has 1-0" true (Graph.has_edge g 1 0);
  Alcotest.(check bool) "no 1-4" false (Graph.has_edge g 1 4);
  Alcotest.(check int) "weight 2-3" 5 (Graph.weight g 2 3);
  Alcotest.(check int) "weight 3-2" 5 (Graph.weight g 3 2);
  Alcotest.(check int) "total weight" 28 (Graph.total_weight g);
  Alcotest.(check bool) "distinct" true (Graph.distinct_weights g)

let test_graph_validation () =
  let expect_invalid f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  expect_invalid (fun () -> Graph.of_edges 3 [ (0, 0, 1) ]);
  expect_invalid (fun () -> Graph.of_edges 3 [ (0, 3, 1) ]);
  expect_invalid (fun () -> Graph.of_edges 3 [ (0, 1, 1); (1, 0, 2) ]);
  expect_invalid (fun () -> Graph.of_edges 0 [])

let test_edge_ops () =
  let e = E.make 5 2 9 in
  Alcotest.(check int) "normalized u" 2 e.E.u;
  Alcotest.(check int) "normalized v" 5 e.E.v;
  Alcotest.(check int) "other 2" 5 (E.other e 2);
  Alcotest.(check int) "other 5" 2 (E.other e 5);
  Alcotest.(check bool) "mem" true (E.mem e 5);
  Alcotest.(check bool) "not mem" false (E.mem e 9);
  (* Tie-break on equal weights keeps the order total. *)
  let a = E.make 0 1 7 and b = E.make 0 2 7 in
  Alcotest.(check bool) "tie break" true (E.compare a b < 0)

let test_neighbors_sorted () =
  let g = fixture () in
  let ns = Graph.neighbors g 2 |> Array.map fst in
  Alcotest.(check (array int)) "sorted" [| 0; 1; 3; 4 |] ns

(* ------------------------------------------------------------------ *)
(* Incremental edits *)

let test_edit_edges () =
  let g = fixture () in
  let g1 = Graph.add_edge g 1 4 9 in
  Alcotest.(check int) "m after add" 8 (Graph.m g1);
  Alcotest.(check int) "new weight" 9 (Graph.weight g1 4 1);
  Alcotest.(check int) "total after add" 37 (Graph.total_weight g1);
  Alcotest.(check int) "original untouched" 7 (Graph.m g);
  let g2 = Graph.remove_edge g1 1 4 in
  Alcotest.(check bool) "removed" false (Graph.has_edge g2 1 4);
  Alcotest.(check int) "total after remove" 28 (Graph.total_weight g2);
  let g3 = Graph.reweight_edge g 2 3 50 in
  Alcotest.(check int) "reweighted" 50 (Graph.weight g3 3 2);
  Alcotest.(check int) "total after reweight" 73 (Graph.total_weight g3)

let test_edit_nodes () =
  let g = fixture () in
  let g1 = Graph.add_node g [ (0, 10); (4, 11) ] in
  Alcotest.(check int) "n after join" 6 (Graph.n g1);
  Alcotest.(check int) "anchor edge" 10 (Graph.weight g1 5 0);
  Alcotest.(check int) "second anchor" 11 (Graph.weight g1 5 4);
  (* Remove node 1: node 4 is swap-renamed to 1. *)
  let g2 = Graph.remove_node g 1 in
  Alcotest.(check int) "n after leave" 4 (Graph.n g2);
  Alcotest.(check bool) "renamed 4's edge {3,4}" true (Graph.has_edge g2 3 1);
  Alcotest.(check bool) "renamed 4's edge {2,4}" true (Graph.has_edge g2 2 1);
  Alcotest.(check bool) "old {0,1} gone" true (Graph.weight g2 0 2 = 3);
  Alcotest.(check int) "edges dropped" 5 (Graph.m g2);
  (* Removing the highest id needs no rename. *)
  let g3 = Graph.remove_node g 4 in
  Alcotest.(check int) "n" 4 (Graph.n g3);
  Alcotest.(check int) "m" 5 (Graph.m g3)

(* The node edits as they were before they patched rows in place —
   whole rebuilds through [of_edge_list] — kept as oracles. *)
let old_add_node g anchors =
  Graph.of_edge_list (Graph.n g + 1)
    (Array.to_list (Graph.edges g) @ List.map (fun (a, w) -> E.make a (Graph.n g) w) anchors)

let old_remove_node g v =
  let last = Graph.n g - 1 in
  let rename x = if x = last then v else x in
  let edges =
    Array.to_list (Graph.edges g)
    |> List.filter_map (fun (e : E.t) ->
           if e.E.u = v || e.E.v = v then None
           else Some (E.make (rename e.E.u) (rename e.E.v) e.E.w))
  in
  Graph.of_edge_list (Graph.n g - 1) edges

(* Everything a caller can observe of a graph, in a comparable form:
   edge order (Churn picks edges by index), every neighbors row, the
   CSR mirror and the total weight. *)
let edge_triples g =
  Array.to_list (Graph.edges g) |> List.map (fun (e : E.t) -> (e.E.u, e.E.v, e.E.w))

let observe g =
  ( Graph.n g,
    edge_triples g,
    Array.init (Graph.n g) (Graph.neighbors g),
    (Graph.csr_row g, Graph.csr_col g, Graph.csr_wgt g),
    Graph.total_weight g )

let check_same_graph name expected actual =
  Alcotest.(check bool) name true (observe expected = observe actual)

let test_edit_leave_highest () =
  let g = fixture () in
  let g' = Graph.remove_node g 4 in
  check_same_graph "= old rebuild" (old_remove_node g 4) g';
  Alcotest.(check (list (triple int int int)))
    "edges keep their order, none renamed"
    [ (0, 1, 1); (1, 2, 2); (0, 2, 3); (2, 3, 5); (0, 3, 7) ]
    (edge_triples g');
  Alcotest.(check (array (pair int int))) "row 3" [| (0, 7); (2, 5) |] (Graph.neighbors g' 3)

let test_edit_leave_renamed_neighbor () =
  (* Node 3 is adjacent to 4, the node renamed into its slot: {3,4}
     disappears and 4's surviving edge {2,4} becomes {2,3}. *)
  let g = fixture () in
  let g' = Graph.remove_node g 3 in
  check_same_graph "= old rebuild" (old_remove_node g 3) g';
  Alcotest.(check (list (triple int int int)))
    "edges" [ (0, 1, 1); (1, 2, 2); (0, 2, 3); (2, 3, 6) ]
    (edge_triples g');
  Alcotest.(check (array (pair int int))) "renamed row" [| (2, 6) |] (Graph.neighbors g' 3);
  Alcotest.(check (array (pair int int)))
    "row 2 re-sorted" [| (0, 3); (1, 2); (3, 6) |] (Graph.neighbors g' 2);
  Alcotest.(check int) "total" 12 (Graph.total_weight g')

let test_edit_join_at_last () =
  let g = fixture () in
  let anchors = [ (4, 8); (1, 9) ] in
  let g' = Graph.add_node g anchors in
  check_same_graph "= old rebuild" (old_add_node g anchors) g';
  Alcotest.(check (array (pair int int))) "joiner row" [| (1, 9); (4, 8) |] (Graph.neighbors g' 5);
  Alcotest.(check (array (pair int int)))
    "anchor n-1 row" [| (2, 6); (3, 4); (5, 8) |] (Graph.neighbors g' 4)

let test_edit_validation () =
  let g = fixture () in
  let expect_invalid f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  expect_invalid (fun () -> Graph.add_edge g 0 5 1);
  expect_invalid (fun () -> Graph.add_edge g (-1) 2 1);
  expect_invalid (fun () -> Graph.add_edge g 2 2 1);
  expect_invalid (fun () -> Graph.add_edge g 0 1 99);
  expect_invalid (fun () -> Graph.remove_edge g 1 4);
  expect_invalid (fun () -> Graph.remove_edge g 0 9);
  expect_invalid (fun () -> Graph.reweight_edge g 1 4 1);
  expect_invalid (fun () -> Graph.add_node g []);
  expect_invalid (fun () -> Graph.add_node g [ (7, 1) ]);
  expect_invalid (fun () -> Graph.add_node g [ (0, 1); (0, 2) ]);
  expect_invalid (fun () -> Graph.remove_node g 5);
  expect_invalid (fun () -> Graph.remove_node (Graph.of_edges 1 []) 0)

(* ------------------------------------------------------------------ *)
(* Union-find *)

let test_union_find () =
  let uf = Union_find.create 6 in
  Alcotest.(check int) "initial count" 6 (Union_find.count uf);
  Alcotest.(check bool) "union 0 1" true (Union_find.union uf 0 1);
  Alcotest.(check bool) "union 1 0 again" false (Union_find.union uf 1 0);
  Alcotest.(check bool) "same 0 1" true (Union_find.same uf 0 1);
  Alcotest.(check bool) "not same 0 2" false (Union_find.same uf 0 2);
  ignore (Union_find.union uf 2 3);
  ignore (Union_find.union uf 0 3);
  Alcotest.(check int) "count" 3 (Union_find.count uf);
  Alcotest.(check int) "size of 1's set" 4 (Union_find.size uf 1);
  Alcotest.(check int) "size of 4's set" 1 (Union_find.size uf 4)

(* ------------------------------------------------------------------ *)
(* Traversal *)

let test_bfs () =
  let g = fixture () in
  let d = Traversal.bfs_distances g ~src:0 in
  Alcotest.(check (array int)) "distances" [| 0; 1; 1; 1; 2 |] d;
  let p = Traversal.bfs_tree g ~src:0 in
  Alcotest.(check int) "root parent" (-1) p.(0);
  Alcotest.(check bool) "valid tree" true (Tree.check_parents ~root:0 p)

let test_components () =
  let g = Graph.of_edges 5 [ (0, 1, 1); (2, 3, 2) ] in
  let count, comp = Traversal.components g in
  Alcotest.(check int) "three components" 3 count;
  Alcotest.(check bool) "0~1" true (comp.(0) = comp.(1));
  Alcotest.(check bool) "2~3" true (comp.(2) = comp.(3));
  Alcotest.(check bool) "0!~2" true (comp.(0) <> comp.(2));
  Alcotest.(check bool) "disconnected" false (Traversal.is_connected g);
  Alcotest.(check bool) "fixture connected" true (Traversal.is_connected (fixture ()))

let test_diameter () =
  let st = seed 1 in
  Alcotest.(check int) "path diameter" 9 (Traversal.diameter (Generators.path st ~n:10));
  Alcotest.(check int) "ring diameter" 5 (Traversal.diameter (Generators.ring st ~n:10));
  Alcotest.(check int) "complete diameter" 1 (Traversal.diameter (Generators.complete st ~n:6));
  Alcotest.(check int) "star diameter" 2 (Traversal.diameter (Generators.star st ~n:8))

let test_dfs_order () =
  let g = fixture () in
  let pre, post = Traversal.dfs_order g ~src:0 in
  Alcotest.(check int) "pre src" 0 pre.(0);
  (* pre and post are permutations of 0..n-1 *)
  let check_perm name a =
    let b = Array.copy a in
    Array.sort compare b;
    Alcotest.(check (array int)) name (Array.init 5 (fun i -> i)) b
  in
  check_perm "pre perm" pre;
  check_perm "post perm" post

(* ------------------------------------------------------------------ *)
(* Tree *)

let star_tree () = Tree.of_parents ~root:0 [| -1; 0; 0; 0; 0 |]
let path_tree () = Tree.of_parents ~root:0 [| -1; 0; 1; 2; 3 |]

let test_tree_validation () =
  let expect_invalid f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  (* cycle 1 <-> 2 *)
  expect_invalid (fun () -> Tree.of_parents ~root:0 [| -1; 2; 1 |]);
  (* parent out of range *)
  expect_invalid (fun () -> Tree.of_parents ~root:0 [| -1; 7 |]);
  (* root must have -1 *)
  expect_invalid (fun () -> Tree.of_parents ~root:0 [| 1; 0 |]);
  Alcotest.(check bool) "check ok" true (Tree.check_parents ~root:0 [| -1; 0; 1 |]);
  Alcotest.(check bool) "check cycle" false (Tree.check_parents ~root:0 [| -1; 2; 1 |])

let test_tree_accessors () =
  let t = path_tree () in
  Alcotest.(check int) "depth 4" 4 (Tree.depth t 4);
  Alcotest.(check int) "size root" 5 (Tree.size t 0);
  Alcotest.(check int) "size 3" 2 (Tree.size t 3);
  Alcotest.(check int) "degree 0" 1 (Tree.degree t 0);
  Alcotest.(check int) "degree 2" 2 (Tree.degree t 2);
  Alcotest.(check int) "max degree path" 2 (Tree.max_degree t);
  let s = star_tree () in
  Alcotest.(check int) "max degree star" 4 (Tree.max_degree s);
  Alcotest.(check (list int)) "path to root" [ 3; 2; 1; 0 ] (Tree.path_to_root t 3)

let test_tree_ancestry () =
  let t = Tree.of_parents ~root:0 [| -1; 0; 0; 1; 1; 2 |] in
  Alcotest.(check bool) "anc 0 5" true (Tree.is_ancestor t 0 5);
  Alcotest.(check bool) "anc 1 4" true (Tree.is_ancestor t 1 4);
  Alcotest.(check bool) "anc self" true (Tree.is_ancestor t 3 3);
  Alcotest.(check bool) "not anc 1 5" false (Tree.is_ancestor t 1 5);
  Alcotest.(check int) "nca 3 4" 1 (Tree.nca t 3 4);
  Alcotest.(check int) "nca 3 5" 0 (Tree.nca t 3 5);
  Alcotest.(check int) "nca 1 3" 1 (Tree.nca t 1 3);
  Alcotest.(check (list int)) "tree path" [ 3; 1; 0; 2; 5 ] (Tree.tree_path t 3 5)

let test_fundamental_cycle () =
  let t = path_tree () in
  Alcotest.(check (list int)) "cycle 0-4" [ 0; 1; 2; 3; 4 ]
    (Tree.fundamental_cycle t ~e:(0, 4));
  Alcotest.(check (list int)) "cycle 2-4" [ 2; 3; 4 ] (Tree.fundamental_cycle t ~e:(2, 4));
  let expect_invalid f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  expect_invalid (fun () -> Tree.fundamental_cycle t ~e:(0, 1))

let test_swap () =
  let t = path_tree () in
  (* 0-1-2-3-4 plus edge {0,4}; remove {2,3}. New tree: 0-1-2, 0-4-3. *)
  let t' = Tree.swap t ~add:(0, 4) ~remove:(2, 3) in
  Alcotest.(check int) "root kept" 0 (Tree.root t');
  Alcotest.(check int) "4's parent" 0 (Tree.parent t' 4);
  Alcotest.(check int) "3's parent" 4 (Tree.parent t' 3);
  Alcotest.(check int) "2's parent" 1 (Tree.parent t' 2);
  Alcotest.(check bool) "still has 0-1" true (Tree.mem_edge t' 0 1);
  Alcotest.(check bool) "no more 2-3" false (Tree.mem_edge t' 2 3);
  (* Swapping back gives the original edge set. *)
  let t'' = Tree.swap t' ~add:(2, 3) ~remove:(0, 4) in
  Alcotest.(check bool) "round trip" true (Tree.same_edges t t'')

let test_swap_validation () =
  let t = path_tree () in
  let expect_invalid f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  expect_invalid (fun () -> Tree.swap t ~add:(0, 4) ~remove:(0, 4));
  expect_invalid (fun () -> Tree.swap t ~add:(0, 1) ~remove:(2, 3));
  (* {0,2} does not cross the cut of {3,4} *)
  expect_invalid (fun () -> Tree.swap t ~add:(0, 2) ~remove:(3, 4))

(* ------------------------------------------------------------------ *)
(* Generators *)

let check_connected_simple name g =
  Alcotest.(check bool) (name ^ " connected") true (Traversal.is_connected g);
  Alcotest.(check bool) (name ^ " distinct weights") true (Graph.distinct_weights g)

let test_generators () =
  let st = seed 2 in
  check_connected_simple "gnp" (Generators.gnp st ~n:40 ~p:0.05);
  check_connected_simple "gnp dense" (Generators.gnp st ~n:20 ~p:0.8);
  check_connected_simple "random_connected" (Generators.random_connected st ~n:30 ~m:60);
  check_connected_simple "geometric" (Generators.geometric st ~n:30 ~radius:0.2);
  check_connected_simple "grid" (Generators.grid st ~rows:4 ~cols:5);
  check_connected_simple "torus" (Generators.torus st ~rows:3 ~cols:4);
  check_connected_simple "ring" (Generators.ring st ~n:9);
  check_connected_simple "path" (Generators.path st ~n:9);
  check_connected_simple "star" (Generators.star st ~n:9);
  check_connected_simple "complete" (Generators.complete st ~n:8);
  check_connected_simple "hypercube" (Generators.hypercube st ~dim:4);
  check_connected_simple "lollipop" (Generators.lollipop st ~clique:5 ~tail:4);
  check_connected_simple "caterpillar" (Generators.caterpillar st ~spine:4 ~legs:3);
  check_connected_simple "random_tree" (Generators.random_tree st ~n:25)

let test_generator_shapes () =
  let st = seed 3 in
  let g = Generators.grid st ~rows:4 ~cols:5 in
  Alcotest.(check int) "grid nodes" 20 (Graph.n g);
  Alcotest.(check int) "grid edges" 31 (Graph.m g);
  let k = Generators.complete st ~n:7 in
  Alcotest.(check int) "K7 edges" 21 (Graph.m k);
  let h = Generators.hypercube st ~dim:3 in
  Alcotest.(check int) "Q3 nodes" 8 (Graph.n h);
  Alcotest.(check int) "Q3 edges" 12 (Graph.m h);
  Alcotest.(check int) "Q3 regular" 3 (Graph.max_degree h);
  let t = Generators.random_tree st ~n:30 in
  Alcotest.(check int) "tree edges" 29 (Graph.m t);
  let c = Generators.caterpillar st ~spine:3 ~legs:2 in
  Alcotest.(check int) "caterpillar nodes" 9 (Graph.n c);
  let l = Generators.lollipop st ~clique:4 ~tail:3 in
  Alcotest.(check int) "lollipop nodes" 7 (Graph.n l);
  Alcotest.(check int) "lollipop edges" 9 (Graph.m l)

let test_by_name () =
  List.iter
    (fun name ->
      match Generators.by_name name with
      | None -> Alcotest.failf "missing generator %s" name
      | Some f ->
          let g = f (seed 4) ~n:12 in
          Alcotest.(check bool) (name ^ " connected") true (Traversal.is_connected g))
    Generators.all_names;
  Alcotest.(check bool) "unknown" true (Generators.by_name "nope" = None)

(* ------------------------------------------------------------------ *)
(* MST *)

let edge_set es = List.sort E.compare es

let test_mst_small () =
  let g = fixture () in
  let k = Mst.kruskal g in
  Alcotest.(check int) "mst weight" (1 + 2 + 4 + 5) (Mst.weight_of k);
  let p = Mst.prim g ~src:3 in
  Alcotest.(check bool) "prim = kruskal" true (edge_set k = edge_set p);
  let b, phases = Mst.boruvka g in
  Alcotest.(check bool) "boruvka = kruskal" true (edge_set k = edge_set b);
  Alcotest.(check bool) "phase bound" true (phases <= 3)

let test_mst_tree_of () =
  let g = fixture () in
  let t = Mst.tree_of g (Mst.kruskal g) ~root:2 in
  Alcotest.(check int) "rooted at 2" 2 (Tree.root t);
  Alcotest.(check bool) "is mst" true (Mst.is_mst g t);
  let bfs = Tree.of_graph_bfs g ~root:0 in
  Alcotest.(check bool) "bfs not mst here" false (Mst.is_mst g bfs)

let test_mst_disconnected () =
  let g = Graph.of_edges 4 [ (0, 1, 1); (2, 3, 2) ] in
  let expect_invalid f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  expect_invalid (fun () -> Mst.kruskal g);
  expect_invalid (fun () -> Mst.prim g ~src:0);
  expect_invalid (fun () -> ignore (Mst.boruvka g))

(* ------------------------------------------------------------------ *)
(* Min-degree spanning trees *)

let test_exact_small () =
  let st = seed 5 in
  (* A star forces degree n-1; its unique spanning tree is the star. *)
  Alcotest.(check int) "star" 7 (Min_degree.exact (Generators.star st ~n:8));
  (* A ring admits a Hamiltonian path: degree 2. *)
  Alcotest.(check int) "ring" 2 (Min_degree.exact (Generators.ring st ~n:8));
  Alcotest.(check int) "complete" 2 (Min_degree.exact (Generators.complete st ~n:6));
  Alcotest.(check int) "path" 2 (Min_degree.exact (Generators.path st ~n:6));
  Alcotest.(check int) "single node" 0 (Min_degree.exact (Graph.of_edges 1 []));
  Alcotest.(check int) "single edge" 1
    (Min_degree.exact (Graph.of_edges 2 [ (0, 1, 1) ]))

let test_exists_tree_with_degree () =
  let st = seed 6 in
  let g = Generators.star st ~n:6 in
  Alcotest.(check bool) "star needs 5" false (Min_degree.exists_tree_with_degree g 4);
  Alcotest.(check bool) "star has 5" true (Min_degree.exists_tree_with_degree g 5);
  let k = Generators.complete st ~n:5 in
  Alcotest.(check bool) "K5 hamiltonian" true (Min_degree.exists_tree_with_degree k 2);
  Alcotest.(check bool) "no degree-1 tree" false (Min_degree.exists_tree_with_degree k 1)

let test_fr_small () =
  let st = seed 7 in
  List.iter
    (fun g ->
      let t, marking, _swaps = Min_degree.furer_raghavachari g ~root:0 in
      let opt = Min_degree.exact g in
      Alcotest.(check bool) "within OPT+1" true (Tree.max_degree t <= opt + 1);
      Alcotest.(check bool) "is FR tree" true (Min_degree.is_fr_tree g t marking))
    [
      Generators.complete st ~n:7;
      Generators.ring st ~n:9;
      Generators.star st ~n:7;
      Generators.lollipop st ~clique:4 ~tail:3;
      Generators.gnp st ~n:10 ~p:0.4;
      Generators.gnp st ~n:10 ~p:0.7;
      Generators.caterpillar st ~spine:3 ~legs:2;
    ]

let test_fr_improves () =
  let st = seed 8 in
  (* On a complete graph the BFS tree from 0 is the star (degree n-1);
     FR must bring it down to 2 (Hamiltonian path). *)
  let g = Generators.complete st ~n:8 in
  let t, _, swaps = Min_degree.furer_raghavachari g ~root:0 in
  Alcotest.(check int) "complete -> ham path" 2 (Tree.max_degree t);
  Alcotest.(check bool) "did improve" true (swaps > 0)

let test_find_marking () =
  let st = seed 9 in
  let g = Generators.complete st ~n:6 in
  (* The star spanning tree of K6 is not an FR-tree: its center has max
     degree but any leaf pair-edge marks it good. *)
  let star = Tree.of_graph_bfs g ~root:0 in
  Alcotest.(check bool) "star of K6 rejected" true (Min_degree.find_marking g star = None);
  (* The FR output is accepted. *)
  let t, _, _ = Min_degree.furer_raghavachari g ~root:0 in
  Alcotest.(check bool) "FR output accepted" true (Min_degree.find_marking g t <> None)

(* ------------------------------------------------------------------ *)
(* Properties *)

let gen_graph =
  QCheck2.Gen.(
    let* n = int_range 2 24 in
    let* extra = int_range 0 (n * 2) in
    let* s = int_bound 1_000_000 in
    return (Generators.random_connected (Random.State.make [| s |]) ~n ~m:(n - 1 + extra)))

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:100 ~name gen f)

let prop_mst_algorithms_agree =
  prop "kruskal = prim = boruvka" gen_graph (fun g ->
      let k = edge_set (Mst.kruskal g) in
      let p = edge_set (Mst.prim g ~src:(Graph.n g - 1)) in
      let b = edge_set (fst (Mst.boruvka g)) in
      k = p && k = b)

let prop_boruvka_phases =
  prop "boruvka phases <= ceil log2 n" gen_graph (fun g ->
      let _, phases = Mst.boruvka g in
      let rec ceil_log2 k acc = if 1 lsl acc >= k then acc else ceil_log2 k (acc + 1) in
      phases <= max 1 (ceil_log2 (Graph.n g) 0))

let prop_mst_cut_property =
  prop "tree swap never beats MST weight" gen_graph (fun g ->
      let t = Mst.tree_of g (Mst.kruskal g) ~root:0 in
      let w = Tree.weight t g in
      (* For every non-tree edge e and every tree edge f on its cycle, the
         swapped tree is no lighter (uniqueness of the MST). *)
      Array.for_all
        (fun (e : E.t) ->
          Tree.mem_edge t e.u e.v
          ||
          let cycle = Tree.fundamental_cycle t ~e:(e.u, e.v) in
          let rec pairs = function
            | a :: b :: rest -> (a, b) :: pairs (b :: rest)
            | _ -> []
          in
          List.for_all
            (fun (a, b) ->
              let t' = Tree.swap t ~add:(e.u, e.v) ~remove:(a, b) in
              Tree.weight t' g >= w)
            (pairs cycle))
        (Graph.edges g))

let prop_swap_preserves_spanning =
  prop "swap yields spanning trees" gen_graph (fun g ->
      let t = ref (Tree.of_graph_bfs g ~root:0) in
      let st = Random.State.make [| Graph.m g |] in
      let non_tree =
        Array.to_list (Graph.edges g)
        |> List.filter (fun (e : E.t) -> not (Tree.mem_edge !t e.u e.v))
      in
      List.for_all
        (fun (e : E.t) ->
          let cycle = Tree.fundamental_cycle !t ~e:(e.u, e.v) in
          let rec pairs = function
            | a :: b :: rest -> (a, b) :: pairs (b :: rest)
            | _ -> []
          in
          let ps = pairs cycle in
          let a, b = List.nth ps (Random.State.int st (List.length ps)) in
          let t' = Tree.swap !t ~add:(e.u, e.v) ~remove:(a, b) in
          t := t';
          Tree.check_parents ~root:(Tree.root t') (Tree.parents t'))
        (match non_tree with [] -> [] | e :: _ -> [ e ]))

let prop_nca_consistent =
  prop "nca matches ancestor intervals" gen_graph (fun g ->
      let t = Tree.of_graph_bfs g ~root:0 in
      let n = Graph.n g in
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          let w = Tree.nca t u v in
          if not (Tree.is_ancestor t w u && Tree.is_ancestor t w v) then ok := false;
          (* No child of w is a common ancestor. *)
          Array.iter
            (fun c -> if Tree.is_ancestor t c u && Tree.is_ancestor t c v then ok := false)
            (Tree.children t w)
        done
      done;
      !ok)

let prop_tree_path_valid =
  prop "tree_path is a simple tree path" gen_graph (fun g ->
      let t = Tree.of_graph_bfs g ~root:0 in
      let n = Graph.n g in
      let st = Random.State.make [| n |] in
      let u = Random.State.int st n and v = Random.State.int st n in
      let path = Tree.tree_path t u v in
      let rec consecutive = function
        | a :: b :: rest -> Tree.mem_edge t a b && consecutive (b :: rest)
        | _ -> true
      in
      List.hd path = u
      && List.hd (List.rev path) = v
      && consecutive path
      && List.length (List.sort_uniq compare path) = List.length path)

let prop_fr_within_one =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:40 ~name:"FR degree <= exact + 1"
       QCheck2.Gen.(
         let* n = int_range 4 9 in
         let* extra = int_range 0 (n * 2) in
         let* s = int_bound 1_000_000 in
         return
           (Generators.random_connected (Random.State.make [| s; 1 |]) ~n
              ~m:(n - 1 + extra)))
       (fun g ->
         let t, marking, _ = Min_degree.furer_raghavachari g ~root:0 in
         Tree.max_degree t <= Min_degree.exact g + 1
         && Min_degree.is_fr_tree g t marking))

(* An edited graph is indistinguishable from one built from scratch on
   the same edge set — CSR mirror and total weight byte for byte
   (Marshal equality) — and, after every op, from the same history
   replayed with the old rebuilding node edits: edge order and every
   neighbors row included. Applies a random mix of all five edit ops,
   restricted to choices that keep the graph valid (the service layer's
   Topology.check enforces the same restriction at run time). *)
let prop_edits_match_scratch =
  prop "edits = of_edges from scratch (CSR + total weight)"
    QCheck2.Gen.(
      let* n = int_range 3 16 in
      let* extra = int_range 1 n in
      let* s = int_bound 1_000_000 in
      let* ops = int_range 1 12 in
      return
        ( Generators.random_connected (Random.State.make [| s |]) ~n ~m:(n - 1 + extra),
          s,
          ops ))
    (fun (g0, s, ops) ->
      let st = Random.State.make [| s; 0xED17 |] in
      let g = ref g0 and reference = ref g0 and same = ref true in
      let next_w = ref (1 + Graph.fold_edges (fun e acc -> max acc e.E.w) 0 g0) in
      let fresh_w () =
        incr next_w;
        !next_w
      in
      for _ = 1 to ops do
        let n = Graph.n !g in
        (match Random.State.int st 5 with
        | 0 ->
            (* add a random absent edge, if any slot is free *)
            let u = Random.State.int st n and v = Random.State.int st n in
            if u <> v && not (Graph.has_edge !g u v) then begin
              let w = fresh_w () in
              g := Graph.add_edge !g u v w;
              reference := Graph.add_edge !reference u v w
            end
        | 1 ->
            (* remove a random edge whose removal keeps the graph connected *)
            let es = Graph.edges !g in
            let e = es.(Random.State.int st (Array.length es)) in
            let g' = Graph.remove_edge !g e.E.u e.E.v in
            if Traversal.is_connected g' then begin
              g := g';
              reference := Graph.remove_edge !reference e.E.u e.E.v
            end
        | 2 ->
            let es = Graph.edges !g in
            let e = es.(Random.State.int st (Array.length es)) in
            let w = fresh_w () in
            g := Graph.reweight_edge !g e.E.u e.E.v w;
            reference := Graph.reweight_edge !reference e.E.u e.E.v w
        | 3 ->
            let a = Random.State.int st n in
            let b = Random.State.int st n in
            let anchors =
              if b = a then [ (a, fresh_w ()) ]
              else [ (a, fresh_w ()); (b, fresh_w ()) ]
            in
            g := Graph.add_node !g anchors;
            reference := old_add_node !reference anchors
        | _ ->
            if n > 2 then begin
              let v = Random.State.int st n in
              let g' = Graph.remove_node !g v in
              if Traversal.is_connected g' then begin
                g := g';
                reference := old_remove_node !reference v
              end
            end);
        if observe !g <> observe !reference then same := false
      done;
      let scratch = Graph.of_edge_list (Graph.n !g) (Array.to_list (Graph.edges !g)) in
      let bytes f x = Marshal.to_string (f x) [] in
      !same
      && bytes Graph.csr_row !g = bytes Graph.csr_row scratch
      && bytes Graph.csr_col !g = bytes Graph.csr_col scratch
      && bytes Graph.csr_wgt !g = bytes Graph.csr_wgt scratch
      && Graph.total_weight !g = Graph.total_weight scratch
      && Graph.m !g = Graph.m scratch)

let prop_sizes_and_depths =
  prop "tree sizes and depths are consistent" gen_graph (fun g ->
      let t = Tree.of_graph_bfs g ~root:0 in
      let n = Graph.n g in
      let ok = ref (Tree.size t (Tree.root t) = n) in
      for v = 0 to n - 1 do
        let expected =
          1 + Array.fold_left (fun acc c -> acc + Tree.size t c) 0 (Tree.children t v)
        in
        if Tree.size t v <> expected then ok := false;
        if v <> Tree.root t && Tree.depth t v <> Tree.depth t (Tree.parent t v) + 1 then
          ok := false
      done;
      !ok)

let () =
  (* Deterministic property tests: fix the qcheck master seed. *)
  QCheck_base_runner.set_seed 20260704;
  Alcotest.run "repro_graph"
    [
      ( "graph",
        [
          Alcotest.test_case "basics" `Quick test_graph_basics;
          Alcotest.test_case "validation" `Quick test_graph_validation;
          Alcotest.test_case "edge ops" `Quick test_edge_ops;
          Alcotest.test_case "neighbors sorted" `Quick test_neighbors_sorted;
          Alcotest.test_case "edit edges" `Quick test_edit_edges;
          Alcotest.test_case "edit nodes" `Quick test_edit_nodes;
          Alcotest.test_case "edit leave highest id" `Quick test_edit_leave_highest;
          Alcotest.test_case "edit leave renamed neighbor" `Quick
            test_edit_leave_renamed_neighbor;
          Alcotest.test_case "edit join at n-1" `Quick test_edit_join_at_last;
          Alcotest.test_case "edit validation" `Quick test_edit_validation;
        ] );
      ("union_find", [ Alcotest.test_case "operations" `Quick test_union_find ]);
      ( "traversal",
        [
          Alcotest.test_case "bfs" `Quick test_bfs;
          Alcotest.test_case "components" `Quick test_components;
          Alcotest.test_case "diameter" `Quick test_diameter;
          Alcotest.test_case "dfs order" `Quick test_dfs_order;
        ] );
      ( "tree",
        [
          Alcotest.test_case "validation" `Quick test_tree_validation;
          Alcotest.test_case "accessors" `Quick test_tree_accessors;
          Alcotest.test_case "ancestry" `Quick test_tree_ancestry;
          Alcotest.test_case "fundamental cycle" `Quick test_fundamental_cycle;
          Alcotest.test_case "swap" `Quick test_swap;
          Alcotest.test_case "swap validation" `Quick test_swap_validation;
        ] );
      ( "generators",
        [
          Alcotest.test_case "connected and distinct" `Quick test_generators;
          Alcotest.test_case "shapes" `Quick test_generator_shapes;
          Alcotest.test_case "by_name" `Quick test_by_name;
        ] );
      ( "mst",
        [
          Alcotest.test_case "small" `Quick test_mst_small;
          Alcotest.test_case "tree_of" `Quick test_mst_tree_of;
          Alcotest.test_case "disconnected" `Quick test_mst_disconnected;
        ] );
      ( "min_degree",
        [
          Alcotest.test_case "exact small" `Quick test_exact_small;
          Alcotest.test_case "exists with degree" `Quick test_exists_tree_with_degree;
          Alcotest.test_case "FR small" `Quick test_fr_small;
          Alcotest.test_case "FR improves" `Quick test_fr_improves;
          Alcotest.test_case "find marking" `Quick test_find_marking;
        ] );
      ( "properties",
        [
          prop_mst_algorithms_agree;
          prop_boruvka_phases;
          prop_mst_cut_property;
          prop_swap_preserves_spanning;
          prop_nca_consistent;
          prop_tree_path_valid;
          prop_fr_within_one;
          prop_edits_match_scratch;
          prop_sizes_and_depths;
        ] );
    ]
