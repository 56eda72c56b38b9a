(* Tests for repro_labels: every proof-labeling scheme's completeness
   (prover's labels accepted on legal configurations) and soundness
   (illegal configurations / corrupted labels rejected somewhere), the
   malleability of the redundant scheme (Lemma 4.1), the NCA labeling and
   its PLS (Lemma 5.1), the Borůvka-trace labels and MST PLS (Section VI,
   Figure 2), and the FR-tree PLS (Lemma 8.1). *)

open Repro_graph
open Repro_labels
module E = Graph.Edge

let seed i = Random.State.make [| 0x5EED; i |]

let sample_graph i =
  let st = seed i in
  Generators.random_connected st ~n:(8 + (i mod 10)) ~m:(16 + i)

let sample_tree g = Tree.of_graph_bfs g ~root:0

(* A parent encoding that is NOT a spanning tree: a 2-cycle between nodes
   a and b plus the rest pointing arbitrarily. *)
let broken_parents g =
  let n = Graph.n g in
  let t = sample_tree g in
  let p = Tree.parents t in
  (* Create a cycle: pick a non-root node b whose parent is a, and set
     a's parent to b. *)
  let b = if Tree.root t = 0 then 1 else 0 in
  let a = Tree.parent t b in
  if a = -1 then p (* can't happen: b is not the root *)
  else begin
    p.(a) <- b;
    ignore n;
    p
  end

(* ------------------------------------------------------------------ *)
(* Distance PLS *)

let test_distance_complete () =
  for i = 0 to 9 do
    let g = sample_graph i in
    Alcotest.(check bool) "accepts" true (Distance_pls.accepts_tree g (sample_tree g))
  done

let test_distance_sound_cycle () =
  for i = 0 to 9 do
    let g = sample_graph i in
    let t = sample_tree g in
    let parent = broken_parents g in
    let labels = Distance_pls.prover t in
    Alcotest.(check bool) "rejects cycle" false
      (Pls.accepts g ~parent ~labels Distance_pls.verify)
  done

let test_distance_sound_corruption () =
  let g = sample_graph 3 in
  let t = sample_tree g in
  let parent = Tree.parents t in
  let labels = Distance_pls.prover t in
  (* Corrupt one non-root node's distance. *)
  let v = if Tree.root t = 2 then 3 else 2 in
  labels.(v) <- { labels.(v) with Distance_pls.dist = labels.(v).Distance_pls.dist + 5 };
  Alcotest.(check bool) "rejects bad dist" false
    (Pls.accepts g ~parent ~labels Distance_pls.verify);
  let labels = Distance_pls.prover t in
  labels.(v) <- { labels.(v) with Distance_pls.root_id = 999 };
  Alcotest.(check bool) "rejects bad root id" false
    (Pls.accepts g ~parent ~labels Distance_pls.verify)

(* ------------------------------------------------------------------ *)
(* Size PLS: the size facet of Nca_pls (size(v) = 1 + Σ size(child),
   the root's size = n) *)

let test_size_complete () =
  for i = 0 to 9 do
    let g = sample_graph i in
    Alcotest.(check bool) "accepts" true (Nca_pls.accepts_tree g (sample_tree g))
  done

let test_size_sound () =
  let g = sample_graph 4 in
  let t = sample_tree g in
  let parent = Tree.parents t in
  let labels = Nca_pls.prover t in
  let v = if Tree.root t = 1 then 2 else 1 in
  labels.(v) <- { labels.(v) with Nca_pls.size = labels.(v).Nca_pls.size + 1 };
  Alcotest.(check bool) "rejects bad size" false
    (Pls.accepts g ~parent ~labels Nca_pls.verify);
  Alcotest.(check bool) "rejects cycle" false
    (Pls.accepts g ~parent:(broken_parents g) ~labels:(Nca_pls.prover t) Nca_pls.verify)

(* ------------------------------------------------------------------ *)
(* Redundant malleable PLS (Lemma 4.1) *)

let test_redundant_complete () =
  for i = 0 to 9 do
    let g = sample_graph i in
    Alcotest.(check bool) "accepts" true (Redundant_pls.accepts_tree g (sample_tree g))
  done

(* Lemma 4.1 (1): any C1/C2-respecting pruning is accepted everywhere. *)
let test_redundant_prunings_accepted () =
  for i = 0 to 9 do
    let g = sample_graph i in
    let t = sample_tree g in
    let parent = Tree.parents t in
    let st = seed (100 + i) in
    (* Random pruning: pick a node w; prune dist of the whole root-to-w
       path to (d,⊥)?  No — (d,⊥) means size pruned. Build the switch
       shape: prune size along two root paths, prune dist in a subtree. *)
    let n = Graph.n g in
    let w1 = Random.State.int st n and w2 = Random.State.int st n in
    let v = Random.State.int st n in
    let labels = Redundant_pls.prover t in
    let prune_path w =
      List.iter
        (fun x -> labels.(x) <- Redundant_pls.prune_dist labels.(x))
        (Tree.path_to_root t w)
    in
    (* prune_dist keeps d, discards s -> (d,⊥): C1 wants ancestors pruned
       too, which path pruning provides. *)
    prune_path w1;
    prune_path w2;
    (* Subtree of v gets (⊥,s) — C2 wants parents to keep s; nodes on the
       pruned root paths inside the subtree would break C2, so only prune
       subtree nodes that are not on those paths; also never produce
       (⊥,⊥). *)
    let on_path x = List.mem x (Tree.path_to_root t w1) || List.mem x (Tree.path_to_root t w2) in
    for x = 0 to n - 1 do
      if Tree.is_ancestor t v x && (not (on_path x)) && x <> Tree.root t
         && not (on_path (Tree.parent t x))
      then
        if labels.(x).Redundant_pls.size <> None then
          labels.(x) <- Redundant_pls.prune_size labels.(x)
    done;
    if Redundant_pls.valid_pruning t labels then
      Alcotest.(check bool) "pruning accepted" true
        (Pls.accepts g ~parent ~labels Redundant_pls.verify)
  done

let test_redundant_rejects_nontree () =
  for i = 0 to 9 do
    let g = sample_graph i in
    let t = sample_tree g in
    let parent = broken_parents g in
    (* Even with pruned labels, a non-tree must be rejected (Lemma 4.1 (2)):
       try several prunings. *)
    let full = Redundant_pls.prover t in
    Alcotest.(check bool) "rejects full" false
      (Pls.accepts g ~parent ~labels:full Redundant_pls.verify);
    let all_dist =
      Array.map (fun l -> { l with Redundant_pls.size = None }) (Redundant_pls.prover t)
    in
    Alcotest.(check bool) "rejects (d,⊥) everywhere" false
      (Pls.accepts g ~parent ~labels:all_dist Redundant_pls.verify);
    let all_size =
      Array.map (fun l -> { l with Redundant_pls.dist = None }) (Redundant_pls.prover t)
    in
    Alcotest.(check bool) "rejects (⊥,s) everywhere" false
      (Pls.accepts g ~parent ~labels:all_size Redundant_pls.verify)
  done

let test_redundant_c1_violation_rejected () =
  let g = sample_graph 5 in
  let t = sample_tree g in
  let parent = Tree.parents t in
  let labels = Redundant_pls.prover t in
  (* Prune a single non-root node to (d,⊥) while its parent keeps (d,s):
     the Lemma 4.1 table row (d,⊥) × column (d',s') says "no". *)
  let v =
    let rec find x = if x <> Tree.root t && Tree.parent t x <> Tree.root t then x else find (x + 1) in
    find 0
  in
  labels.(v) <- Redundant_pls.prune_dist labels.(v);
  Alcotest.(check bool) "C1 violation rejected" false
    (Pls.accepts g ~parent ~labels Redundant_pls.verify)

let test_redundant_ill_formed_rejected () =
  let g = sample_graph 6 in
  let t = sample_tree g in
  let parent = Tree.parents t in
  let labels = Redundant_pls.prover t in
  labels.(1) <- { labels.(1) with Redundant_pls.dist = None; size = None };
  Alcotest.(check bool) "(⊥,⊥) rejected" false
    (Pls.accepts g ~parent ~labels Redundant_pls.verify)

(* ------------------------------------------------------------------ *)
(* Interval labels *)

let test_interval_ancestry () =
  for i = 0 to 9 do
    let g = sample_graph i in
    let t = sample_tree g in
    let labels = Interval_labels.prover t in
    let n = Graph.n g in
    for u = 0 to n - 1 do
      for v = 0 to n - 1 do
        Alcotest.(check bool)
          (Printf.sprintf "anc %d %d" u v)
          (Tree.is_ancestor t u v)
          (Interval_labels.is_ancestor labels.(u) labels.(v))
      done
    done
  done

let test_interval_cycle_membership () =
  for i = 0 to 9 do
    let g = sample_graph i in
    let t = sample_tree g in
    let labels = Interval_labels.prover t in
    Graph.iter_edges
      (fun e ->
        if not (Tree.mem_edge t e.E.u e.E.v) then begin
          let cycle = Tree.fundamental_cycle t ~e:(e.E.u, e.E.v) in
          for x = 0 to Graph.n g - 1 do
            let children = Array.to_list (Array.map (fun c -> labels.(c)) (Tree.children t x)) in
            Alcotest.(check bool)
              (Printf.sprintf "on_cycle %d {%d,%d}" x e.E.u e.E.v)
              (List.mem x cycle)
              (Interval_labels.on_cycle labels.(x) ~u:labels.(e.E.u) ~v:labels.(e.E.v)
                 ~children)
          done
        end)
      g
  done

let test_interval_pls () =
  let g = sample_graph 7 in
  let t = sample_tree g in
  Alcotest.(check bool) "accepts" true (Interval_labels.accepts_tree g t);
  let labels = Interval_labels.prover t in
  labels.(1) <- { Interval_labels.pre = 0; post = Graph.n g - 1 };
  Alcotest.(check bool) "rejects stolen root interval" false
    (Pls.accepts g ~parent:(Tree.parents t) ~labels Interval_labels.verify)

(* ------------------------------------------------------------------ *)
(* Heavy paths and NCA labels *)

let test_heavy_path_basics () =
  (* Path graph: a single heavy path. *)
  let st = seed 8 in
  let g = Generators.path st ~n:10 in
  let t = Tree.of_graph_bfs g ~root:0 in
  let hp = Heavy_path.compute t in
  Alcotest.(check int) "single path: no light edges" 0 (Heavy_path.max_light_depth hp);
  Alcotest.(check int) "head of 9" 0 (Heavy_path.head hp 9);
  Alcotest.(check int) "pos of 9" 9 (Heavy_path.pos hp 9);
  (* Star: every leaf is a light child except the heavy one. *)
  let s = Generators.star st ~n:8 in
  let ts = Tree.of_graph_bfs s ~root:0 in
  let hps = Heavy_path.compute ts in
  Alcotest.(check int) "star light depth" 1 (Heavy_path.max_light_depth hps);
  Alcotest.(check int) "star heavy child" 1 (Heavy_path.heavy_child hps 0)

let test_heavy_path_log_bound () =
  for i = 0 to 9 do
    let g = sample_graph i in
    let t = sample_tree g in
    let hp = Heavy_path.compute t in
    let n = Graph.n g in
    let rec log2c k acc = if 1 lsl acc >= k then acc else log2c k (acc + 1) in
    Alcotest.(check bool) "light depth <= log2 n" true
      (Heavy_path.max_light_depth hp <= log2c n 0)
  done

let test_nca_labels_match_tree () =
  for i = 0 to 9 do
    let g = sample_graph i in
    let t = sample_tree g in
    let labels = Nca_labels.prover t in
    let n = Graph.n g in
    for u = 0 to n - 1 do
      for v = 0 to n - 1 do
        let w = Tree.nca t u v in
        Alcotest.(check bool)
          (Printf.sprintf "nca %d %d = %d" u v w)
          true
          (Nca_labels.equal (Nca_labels.nca labels.(u) labels.(v)) labels.(w))
      done
    done
  done

let test_nca_cycle_membership () =
  for i = 0 to 9 do
    let g = sample_graph i in
    let t = sample_tree g in
    let labels = Nca_labels.prover t in
    Graph.iter_edges
      (fun e ->
        if not (Tree.mem_edge t e.E.u e.E.v) then begin
          let cycle = Tree.fundamental_cycle t ~e:(e.E.u, e.E.v) in
          for x = 0 to Graph.n g - 1 do
            Alcotest.(check bool)
              (Printf.sprintf "on_cycle %d {%d,%d}" x e.E.u e.E.v)
              (List.mem x cycle)
              (Nca_labels.on_cycle ~x:labels.(x) ~u:labels.(e.E.u) ~v:labels.(e.E.v))
          done
        end)
      g
  done

let test_nca_label_size () =
  for i = 0 to 9 do
    let g = sample_graph i in
    let t = sample_tree g in
    let labels = Nca_labels.prover t in
    let n = Graph.n g in
    let rec log2c k acc = if 1 lsl acc >= k then acc else log2c k (acc + 1) in
    Array.iter
      (fun l ->
        Alcotest.(check bool) "length <= log2 n + 1" true
          (Nca_labels.length l <= log2c n 0 + 1))
      labels
  done

let test_nca_resolve () =
  let g = sample_graph 2 in
  let t = sample_tree g in
  let labels = Nca_labels.prover t in
  for v = 0 to Graph.n g - 1 do
    Alcotest.(check int) "resolve" v (Nca_labels.resolve t labels.(v))
  done

(* ------------------------------------------------------------------ *)
(* NCA PLS (Lemma 5.1) *)

let test_nca_pls_complete () =
  for i = 0 to 9 do
    let g = sample_graph i in
    Alcotest.(check bool) "accepts" true (Nca_pls.accepts_tree g (sample_tree g))
  done

let test_nca_pls_sound () =
  let g = sample_graph 9 in
  let t = sample_tree g in
  let parent = Tree.parents t in
  (* Corrupt one node's sequence. *)
  let labels = Nca_pls.prover t in
  let v = if Tree.root t = 1 then 2 else 1 in
  labels.(v) <-
    { labels.(v) with Nca_pls.seq = Nca_labels.extend_light labels.(v).Nca_pls.seq ~child:v };
  Alcotest.(check bool) "rejects bad seq" false
    (Pls.accepts g ~parent ~labels Nca_pls.verify);
  (* Corrupt a size: breaks either the size sum or heavy-child choice. *)
  let labels = Nca_pls.prover t in
  labels.(v) <- { labels.(v) with Nca_pls.size = labels.(v).Nca_pls.size + 3 };
  Alcotest.(check bool) "rejects bad size" false
    (Pls.accepts g ~parent ~labels Nca_pls.verify)

(* An empty sequence on a node with children (an arbitrary register):
   the verifier rejects it instead of raising on the heavy child's
   extension. *)
let test_nca_pls_empty_seq () =
  let g = sample_graph 9 in
  let t = sample_tree g in
  let parent = Tree.parents t in
  let labels = Nca_pls.prover t in
  let v =
    List.find
      (fun v -> v <> Tree.root t && Array.exists (fun p -> p = v) parent)
      (List.init (Graph.n g) Fun.id)
  in
  labels.(v) <- { labels.(v) with Nca_pls.seq = Nca_labels.of_pairs [||] };
  Alcotest.(check bool) "rejects empty seq" false
    (Pls.accepts g ~parent ~labels Nca_pls.verify)

(* ------------------------------------------------------------------ *)
(* Fragment labels (Section VI, Figure 2) *)

let test_fragment_trace_on_mst () =
  for i = 0 to 9 do
    let g = sample_graph i in
    let mst = Mst.tree_of g (Mst.kruskal g) ~root:0 in
    let labels = Fragment_labels.prover g mst in
    let n = Graph.n g in
    let rec log2c k acc = if 1 lsl acc >= k then acc else log2c k (acc + 1) in
    let k = Fragment_labels.levels labels.(0) in
    Alcotest.(check bool) "k <= ceil log2 n + 1" true (k <= log2c n 0 + 1);
    (* Level-1 fragments are singletons. *)
    let frags1 = Fragment_labels.fragments_at labels ~level:0 in
    Alcotest.(check int) "n singletons" n (List.length frags1);
    (* Fragment count at least halves per level (Figure 2's invariant). *)
    let rec check_halving i prev =
      if i < k then begin
        let c = List.length (Fragment_labels.fragments_at labels ~level:i) in
        Alcotest.(check bool) "halving" true (c <= (prev + 1) / 2 || c = 1);
        check_halving (i + 1) c
      end
    in
    check_halving 1 n;
    (* Top level: one fragment. *)
    Alcotest.(check int) "single top fragment" 1
      (List.length (Fragment_labels.fragments_at labels ~level:(k - 1)))
  done

let test_fragment_pls_completeness_on_mst () =
  for i = 0 to 9 do
    let g = sample_graph i in
    let mst = Mst.tree_of g (Mst.kruskal g) ~root:0 in
    Alcotest.(check bool) "MST accepted" true (Fragment_labels.accepts_tree g mst)
  done

let test_fragment_pls_rejects_non_mst () =
  for i = 0 to 9 do
    let g = sample_graph i in
    let mst_edges = Mst.kruskal g in
    let t0 = Tree.of_graph_bfs g ~root:0 in
    if Tree.weight t0 g > Mst.weight_of mst_edges then begin
      (* The BFS tree is not the MST: its own trace labels must be
         rejected by the full verifier... *)
      let labels = Fragment_labels.prover g t0 in
      Alcotest.(check bool) "non-MST rejected" false
        (Pls.accepts g ~parent:(Tree.parents t0) ~labels Fragment_labels.verify);
      (* ...but accepted by the trace-only verifier. *)
      Alcotest.(check bool) "trace accepted" true
        (Pls.accepts g ~parent:(Tree.parents t0) ~labels Fragment_labels.verify_trace)
    end
  done

let test_fragment_potential () =
  for i = 0 to 9 do
    let g = sample_graph i in
    let mst = Mst.tree_of g (Mst.kruskal g) ~root:0 in
    let lm = Fragment_labels.prover g mst in
    Alcotest.(check int) "phi(MST) = 0" 0 (Fragment_labels.potential g mst lm);
    let t0 = Tree.of_graph_bfs g ~root:0 in
    let l0 = Fragment_labels.prover g t0 in
    let phi = Fragment_labels.potential g t0 l0 in
    Alcotest.(check bool) "phi >= 0" true (phi >= 0);
    if not (Mst.is_mst g t0) then begin
      Alcotest.(check bool) "phi > 0 off MST" true (phi > 0);
      Alcotest.(check bool) "violation exists" true
        (Fragment_labels.violation_level g l0 <> None)
    end
  done

(* The red-rule swap guided by the labels strictly decreases phi
   (Section VI, the cyclical-decreasing property). *)
let test_fragment_phi_decreases () =
  for i = 0 to 9 do
    let g = sample_graph i in
    let t = ref (Tree.of_graph_bfs g ~root:0) in
    let steps = ref 0 in
    let continue_ = ref true in
    while !continue_ && !steps < 200 do
      let labels = Fragment_labels.prover g !t in
      match Fragment_labels.violation_level g labels with
      | None -> continue_ := false
      | Some lvl ->
          let phi = Fragment_labels.potential g !t labels in
          (* Find a violated fragment at this level and its G-minimal
             outgoing edge e; swap out the heaviest tree edge on the
             fundamental cycle of e (red rule). *)
          let frag =
            let found = ref None in
            Array.iteri
              (fun _x (l : Fragment_labels.label) ->
                if !found = None then begin
                  let e = l.(lvl) in
                  match e.Fragment_labels.out with
                  | Some out -> (
                      match
                        Fragment_labels.min_outgoing g labels ~level:lvl
                          ~frag:e.Fragment_labels.frag
                      with
                      | Some m when not (E.equal m out) ->
                          found := Some (e.Fragment_labels.frag, m)
                      | _ -> ())
                  | None -> ()
                end)
              labels;
            !found
          in
          (match frag with
          | None -> Alcotest.fail "violation level without violating fragment"
          | Some (_f, e) ->
              let cycle = Tree.fundamental_cycle !t ~e:(e.E.u, e.E.v) in
              let rec pairs = function
                | a :: b :: rest -> (a, b) :: pairs (b :: rest)
                | _ -> []
              in
              let heaviest =
                List.fold_left
                  (fun best (a, b) ->
                    let eb = E.make a b (Graph.weight g a b) in
                    match best with
                    | None -> Some eb
                    | Some cur -> if E.compare eb cur > 0 then Some eb else best)
                  None (pairs cycle)
              in
              let f = Option.get heaviest in
              t := Tree.swap !t ~add:(e.E.u, e.E.v) ~remove:(f.E.u, f.E.v);
              let labels' = Fragment_labels.prover g !t in
              let phi' = Fragment_labels.potential g !t labels' in
              Alcotest.(check bool) "phi strictly decreases" true (phi' < phi));
          incr steps
    done;
    Alcotest.(check bool) "reached MST" true (Mst.is_mst g !t)
  done

let test_fragment_pls_sound_corruption () =
  let g = sample_graph 1 in
  let mst = Mst.tree_of g (Mst.kruskal g) ~root:0 in
  let parent = Tree.parents mst in
  let base = Fragment_labels.prover g mst in
  let st = seed 42 in
  (* Semantic corruptions (fragment ids, selected edges) must always be
     caught. The fdist/odist certificate distances are NOT corrupted
     here: bumping them can occasionally produce another valid
     certificate for the same facts (multiple anchors), which is
     harmless by design. *)
  for _trial = 0 to 49 do
    let labels = Array.map Array.copy base in
    let v = Random.State.int st (Graph.n g) in
    let lvl = Random.State.int st (Fragment_labels.levels labels.(v)) in
    let e = labels.(v).(lvl) in
    let e' =
      match Random.State.int st 2 with
      | 0 -> { e with Fragment_labels.frag = (e.Fragment_labels.frag + 1) mod Graph.n g }
      | _ -> { e with Fragment_labels.out = None }
    in
    if e' <> e then begin
      labels.(v).(lvl) <- e';
      Alcotest.(check bool) "corruption caught" false
        (Pls.accepts g ~parent ~labels Fragment_labels.verify)
    end
  done

(* ------------------------------------------------------------------ *)
(* FR PLS (Lemma 8.1) *)

let test_fr_pls_complete () =
  for i = 0 to 9 do
    let g = sample_graph i in
    let t, marking, _ = Min_degree.furer_raghavachari g ~root:0 in
    Alcotest.(check bool) "FR tree accepted" true
      (Pls.accepts g ~parent:(Tree.parents t)
         ~labels:(Fr_pls.prover g t marking)
         Fr_pls.verify);
    Alcotest.(check bool) "accepts_tree" true (Fr_pls.accepts_tree g t)
  done

let test_fr_pls_rejects_non_fr () =
  (* The star spanning tree of a complete graph is not an FR-tree. *)
  let st = seed 11 in
  let g = Generators.complete st ~n:8 in
  let star = Tree.of_graph_bfs g ~root:0 in
  Alcotest.(check bool) "star of K8 rejected" false (Fr_pls.accepts_tree g star);
  (* Even with a forged marking, verification must fail somewhere: mark
     everyone bad except two leaves in "different fragments". *)
  let n = Graph.n g in
  let marking =
    {
      Min_degree.good = Array.init n (fun v -> v = 1 || v = 2);
      fragment = Array.init n (fun v -> if v = 1 || v = 2 then v else -1);
    }
  in
  let labels = Fr_pls.prover g star marking in
  Alcotest.(check bool) "forged marking rejected" false
    (Pls.accepts g ~parent:(Tree.parents star) ~labels Fr_pls.verify)

let test_fr_pls_sound_corruption () =
  let g = sample_graph 5 in
  let t, marking, _ = Min_degree.furer_raghavachari g ~root:0 in
  let parent = Tree.parents t in
  let base = Fr_pls.prover g t marking in
  let st = seed 12 in
  for _trial = 0 to 49 do
    let labels = Array.copy base in
    let v = Random.State.int st (Graph.n g) in
    let l = labels.(v) in
    let l' =
      match Random.State.int st 4 with
      | 0 -> { l with Fr_pls.k = l.Fr_pls.k + 1 }
      | 1 -> { l with Fr_pls.wdist = l.Fr_pls.wdist + 1 }
      | 2 -> { l with Fr_pls.good = not l.Fr_pls.good }
      | _ -> { l with Fr_pls.fdist = l.Fr_pls.fdist + 1 }
    in
    labels.(v) <- l';
    if not (Fr_pls.equal l l') then begin
      (* Some corruptions of [good] on degree-(k-1) nodes can yield
         another valid marking; only require rejection when the label is
         genuinely inconsistent, which we approximate by checking the
         known-safe fields. *)
      match Random.State.int st 1 with
      | _ ->
          if l'.Fr_pls.k <> l.Fr_pls.k || l'.Fr_pls.wdist <> l.Fr_pls.wdist then
            Alcotest.(check bool) "k/wdist corruption caught" false
              (Pls.accepts g ~parent ~labels Fr_pls.verify)
    end
  done

let test_fr_label_bits_logarithmic () =
  let st = seed 13 in
  List.iter
    (fun n ->
      let g = Generators.gnp st ~n ~p:(8.0 /. float_of_int n) in
      let t, marking, _ = Min_degree.furer_raghavachari g ~root:0 in
      let labels = Fr_pls.prover g t marking in
      let bits = Array.fold_left (fun acc l -> max acc (Fr_pls.size_bits n l)) 0 labels in
      (* O(log n): generously, <= 8 * ceil(log2 n) + 8. *)
      let rec log2c k acc = if 1 lsl acc >= k then acc else log2c k (acc + 1) in
      Alcotest.(check bool)
        (Printf.sprintf "bits at n=%d" n)
        true
        (bits <= (8 * log2c n 0) + 8))
    [ 16; 32; 64 ]

(* ------------------------------------------------------------------ *)
(* Properties *)

let gen_gt =
  QCheck2.Gen.(
    let* n = int_range 3 20 in
    let* extra = int_range 0 n in
    let* s = int_bound 1_000_000 in
    let g = Generators.random_connected (Random.State.make [| s; 3 |]) ~n ~m:(n - 1 + extra) in
    let* root = int_range 0 (n - 1) in
    return (g, Tree.of_graph_bfs g ~root))

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:60 ~name gen f)

let prop_all_schemes_complete =
  prop "all PLS accept their prover on any spanning tree" gen_gt (fun (g, t) ->
      Distance_pls.accepts_tree g t
      && Redundant_pls.accepts_tree g t
      && Interval_labels.accepts_tree g t
      && Nca_pls.accepts_tree g t
      &&
      let labels = Fragment_labels.prover g t in
      Pls.accepts g ~parent:(Tree.parents t) ~labels Fragment_labels.verify_trace)

let prop_nca_equals_tree_nca =
  prop "nca label computation matches Tree.nca" gen_gt (fun (g, t) ->
      let labels = Nca_labels.prover t in
      let n = Graph.n g in
      let st = Random.State.make [| n; 7 |] in
      let ok = ref true in
      for _ = 0 to 30 do
        let u = Random.State.int st n and v = Random.State.int st n in
        if
          not
            (Nca_labels.equal (Nca_labels.nca labels.(u) labels.(v)) labels.(Tree.nca t u v))
        then ok := false
      done;
      !ok)

let prop_fragment_potential_zero_iff_mst =
  prop "phi = 0 iff MST" gen_gt (fun (g, t) ->
      let labels = Fragment_labels.prover g t in
      let phi = Fragment_labels.potential g t labels in
      (phi = 0) = Mst.is_mst g t)

let prop_mst_pls_complete_and_sound =
  prop "MST PLS: accepts MST, rejects non-MST trace" gen_gt (fun (g, t) ->
      let mst = Mst.tree_of g (Mst.kruskal g) ~root:(Tree.root t) in
      let ok_mst = Fragment_labels.accepts_tree g mst in
      let ok_t =
        if Mst.is_mst g t then true
        else
          not
            (Pls.accepts g ~parent:(Tree.parents t) ~labels:(Fragment_labels.prover g t)
               Fragment_labels.verify)
      in
      ok_mst && ok_t)

let () =
  Alcotest.run "repro_labels"
    [
      ( "distance_pls",
        [
          Alcotest.test_case "complete" `Quick test_distance_complete;
          Alcotest.test_case "sound: cycle" `Quick test_distance_sound_cycle;
          Alcotest.test_case "sound: corruption" `Quick test_distance_sound_corruption;
        ] );
      ( "size_pls",
        [
          Alcotest.test_case "complete" `Quick test_size_complete;
          Alcotest.test_case "sound" `Quick test_size_sound;
        ] );
      ( "redundant_pls",
        [
          Alcotest.test_case "complete" `Quick test_redundant_complete;
          Alcotest.test_case "prunings accepted" `Quick test_redundant_prunings_accepted;
          Alcotest.test_case "rejects non-tree" `Quick test_redundant_rejects_nontree;
          Alcotest.test_case "C1 violation rejected" `Quick test_redundant_c1_violation_rejected;
          Alcotest.test_case "(⊥,⊥) rejected" `Quick test_redundant_ill_formed_rejected;
        ] );
      ( "interval_labels",
        [
          Alcotest.test_case "ancestry" `Quick test_interval_ancestry;
          Alcotest.test_case "cycle membership" `Quick test_interval_cycle_membership;
          Alcotest.test_case "pls" `Quick test_interval_pls;
        ] );
      ( "nca",
        [
          Alcotest.test_case "heavy path basics" `Quick test_heavy_path_basics;
          Alcotest.test_case "heavy path log bound" `Quick test_heavy_path_log_bound;
          Alcotest.test_case "labels match tree nca" `Quick test_nca_labels_match_tree;
          Alcotest.test_case "cycle membership" `Quick test_nca_cycle_membership;
          Alcotest.test_case "label size" `Quick test_nca_label_size;
          Alcotest.test_case "resolve" `Quick test_nca_resolve;
          Alcotest.test_case "pls complete" `Quick test_nca_pls_complete;
          Alcotest.test_case "pls sound" `Quick test_nca_pls_sound;
          Alcotest.test_case "pls rejects an empty seq" `Quick test_nca_pls_empty_seq;
        ] );
      ( "fragment_labels",
        [
          Alcotest.test_case "trace on MST (Figure 2)" `Quick test_fragment_trace_on_mst;
          Alcotest.test_case "pls complete on MST" `Quick test_fragment_pls_completeness_on_mst;
          Alcotest.test_case "pls rejects non-MST" `Quick test_fragment_pls_rejects_non_mst;
          Alcotest.test_case "potential" `Quick test_fragment_potential;
          Alcotest.test_case "phi decreases under red rule" `Quick test_fragment_phi_decreases;
          Alcotest.test_case "sound under corruption" `Quick test_fragment_pls_sound_corruption;
        ] );
      ( "fr_pls",
        [
          Alcotest.test_case "complete" `Quick test_fr_pls_complete;
          Alcotest.test_case "rejects non-FR" `Quick test_fr_pls_rejects_non_fr;
          Alcotest.test_case "sound under corruption" `Quick test_fr_pls_sound_corruption;
          Alcotest.test_case "O(log n) bits" `Quick test_fr_label_bits_logarithmic;
        ] );
      ( "properties",
        [
          prop_all_schemes_complete;
          prop_nca_equals_tree_nca;
          prop_fragment_potential_zero_iff_mst;
          prop_mst_pls_complete_and_sound;
        ] );
    ]
