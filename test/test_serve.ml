(* Big-n query serving: the committed label snapshot must answer every
   pair query exactly like naive tree walks — on stabilized trees and on
   degraded (arbitrary, possibly cyclic) parent arrays alike — and pick
   the heavy paths of Heavy_path on legal trees; service episodes must
   be report- and trace-identical between the boxed and the packed
   struct-of-arrays engines on shared seeds, loop monitor included; and
   the mdst silent-but-illegal base stabilization from E13 is minimized
   and pinned as a known failure. *)

open Repro_graph
open Repro_runtime
open Repro_core
open Repro_service
module Builders = Repro_campaign.Builders

let prop ?(count = 20) name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

(* ------------------------------------------------------------------ *)
(* Naive reference reads over an arbitrary parent array: fuel-bounded
   chases, list-intersection NCA — O(n) per query, obviously correct,
   and total on cycles (the degraded-commit regime). *)

let valid p v =
  let n = Array.length p in
  let q = p.(v) in
  q >= 0 && q < n && q <> v

let naive_depth p v =
  let n = Array.length p in
  let rec go u fuel acc =
    if fuel = 0 then -1 else if valid p u then go p.(u) (fuel - 1) (acc + 1) else acc
  in
  go v n 0

(* The chain [v; parent v; ...; root], or [] when the chase cycles. *)
let naive_chain p v =
  let n = Array.length p in
  let rec go u fuel acc =
    if fuel = 0 then []
    else if valid p u then go p.(u) (fuel - 1) (u :: acc)
    else List.rev (u :: acc)
  in
  go v n []

let naive_ancestor p a v = List.mem a (naive_chain p v)

(* The pre-snapshot read path: parent link, root by bounded
   parent-chase (fuel n; -1 = the chase cycled), tree degree by a full
   scan. O(n) per query where the committed snapshot answers in O(1). *)
let answer parents v =
  let n = Array.length parents in
  let parent = parents.(v) in
  let root =
    let rec go u fuel =
      if fuel = 0 then -1
      else
        let p = parents.(u) in
        if p < 0 || p >= n || p = u then u else go p (fuel - 1)
    in
    go v n
  in
  let degree = ref (if parent >= 0 && parent < n && parent <> v then 1 else 0) in
  Array.iteri (fun u p -> if u <> v && p = v then incr degree) parents;
  (parent, root, !degree)

(* Deepest common node of the two chains: walking up from [v], the
   first node that also sits on [u]'s chain. Chains from different
   trees (or off cycles) never intersect. *)
let naive_nca p u v =
  let cu = naive_chain p u in
  match List.find_opt (fun w -> List.mem w cu) (naive_chain p v) with
  | Some w -> w
  | None -> -1

let naive_answer p ~v ~u =
  let a_parent, a_root, a_degree = answer p v in
  let a_nca = naive_nca p u v in
  let a_route =
    if a_nca < 0 then -1
    else naive_depth p u + naive_depth p v - (2 * naive_depth p a_nca)
  in
  { Snapshot.a_parent; a_root; a_degree; a_ancestor = naive_ancestor p u v; a_nca; a_route }

(* Every pair [(v, u)] of a store whose last commit was [p]: [answer]
   against the naive walks, and each single-facet read against the
   matching [answer] field ([answer] climbs once on its own). *)
let check_pairs ?(what = "") snap p =
  let n = Array.length p in
  if Snapshot.n snap <> n then
    QCheck2.Test.fail_reportf "%ssnapshot n %d <> %d" what (Snapshot.n snap) n;
  for v = 0 to n - 1 do
    if Snapshot.depth snap v <> naive_depth p v then
      QCheck2.Test.fail_reportf "%sdepth(%d): %d <> naive %d" what v
        (Snapshot.depth snap v) (naive_depth p v);
    for u = 0 to n - 1 do
      let got = Snapshot.answer snap ~v ~u and want = naive_answer p ~v ~u in
      if got <> want then
        QCheck2.Test.fail_reportf
          "%spair (v=%d, u=%d): snapshot (p=%d r=%d d=%d anc=%b nca=%d route=%d) <> \
           naive (p=%d r=%d d=%d anc=%b nca=%d route=%d)"
          what v u got.Snapshot.a_parent got.Snapshot.a_root got.Snapshot.a_degree
          got.Snapshot.a_ancestor got.Snapshot.a_nca got.Snapshot.a_route
          want.Snapshot.a_parent want.Snapshot.a_root want.Snapshot.a_degree
          want.Snapshot.a_ancestor want.Snapshot.a_nca want.Snapshot.a_route;
      let single =
        {
          Snapshot.a_parent = Snapshot.parent snap v;
          a_root = Snapshot.root snap v;
          a_degree = Snapshot.degree snap v;
          a_ancestor = Snapshot.is_ancestor snap u v;
          a_nca = Snapshot.nca snap u v;
          a_route = Snapshot.route_length snap u v;
        }
      in
      if single <> got then
        QCheck2.Test.fail_reportf "%spair (v=%d, u=%d): single-facet reads <> answer" what v u
    done
  done;
  true

let check_all_pairs ?what p =
  let snap = Snapshot.create () in
  Snapshot.commit snap p;
  check_pairs ?what snap p

(* ------------------------------------------------------------------ *)
(* Snapshot vs naive walks on stabilized trees: run each fixed-width
   builder to silence, commit its parent projection, compare every
   pair. *)

let gen_graph lo hi =
  QCheck2.Gen.(
    let* n = int_range lo hi in
    let* extra = int_range 0 n in
    let* sd = int_bound 1_000_000 in
    return (sd, Generators.random_connected (Random.State.make [| sd |]) ~n ~m:(n - 1 + extra)))

let stabilized_parents (type s) (module P : Service.TREE_PROTOCOL with type state = s)
    (sd, g) =
  let module En = Engine.Make (P) in
  let rng = Random.State.make [| sd; 3 |] in
  let init = En.adversarial rng g in
  let r = En.run g Scheduler.Synchronous rng ~init in
  if not r.En.silent then QCheck2.Test.fail_report "builder did not stabilize";
  Array.map (fun s -> P.parent_of s) r.En.states

(* [n] arbitrary parent links, extreme ints included. *)
let gen_parents n =
  QCheck2.Gen.(
    map Array.of_list
      (list_repeat n
         (frequency
            [
              (12, int_range (-2) (n + 1));
              (1, oneofl [ min_int; max_int; 1 lsl 40; -(1 lsl 40) ]);
            ])))

(* A random legal tree on [n] nodes as [(root, parents)]: nodes join in
   a shuffled order, each hanging off an earlier one — uniformly, or off
   the previous one, so that long paths occur too. *)
let random_tree rng n =
  let order = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- x
  done;
  let p = Array.make n (-1) in
  for i = 1 to n - 1 do
    let j = if Random.State.int rng 4 = 0 then i - 1 else Random.State.int rng i in
    p.(order.(i)) <- order.(j)
  done;
  (order.(0), p)

(* Every node's committed head against [Heavy_path] on the same tree. *)
let check_heads ?(what = "") snap ~root p =
  let hp = Repro_labels.Heavy_path.compute (Tree.of_parents ~root p) in
  Array.iteri
    (fun v _ ->
      let want = Repro_labels.Heavy_path.head hp v in
      if Snapshot.head snap v <> want then
        QCheck2.Test.fail_reportf "%shead(%d): snapshot %d <> Heavy_path %d" what v
          (Snapshot.head snap v) want)
    p;
  true

let snapshot_props =
  [
    prop ~count:25 "snapshot = naive walks (stabilized bfs trees)" (gen_graph 2 20)
      (fun sg -> check_all_pairs (stabilized_parents (module Builders.Bfs_tree) sg));
    prop ~count:15 "snapshot = naive walks (stabilized spt trees)" (gen_graph 2 16)
      (fun sg -> check_all_pairs (stabilized_parents (module Builders.Spt_tree) sg));
    prop ~count:15 "snapshot = naive walks (stabilized adhoc-bfs trees)"
      (gen_graph 2 16)
      (fun sg -> check_all_pairs (stabilized_parents (module Builders.Adhoc_tree) sg));
    (* Degraded commits: arbitrary links — out of range, extreme ints,
       self-loops, parent cycles — must answer exactly like the bounded
       chase. *)
    prop ~count:60 "snapshot = naive walks (arbitrary parent arrays)"
      QCheck2.Gen.(int_range 1 18 >>= gen_parents)
      (fun p -> check_all_pairs p);
    (* One store across a sequence of commits whose node counts go up
       and down across the doubling capacities (16 to 128): reused
       buffers and the shared rebuild scratch must never leak a
       previous commit into the next. *)
    prop ~count:12 "snapshot = naive walks (commit sequence into one store)"
      QCheck2.Gen.(list_size (int_range 2 6) (int_range 1 70 >>= gen_parents))
      (fun ps ->
        let snap = Snapshot.create () in
        List.for_all
          (fun p ->
            Snapshot.commit snap p;
            check_pairs ~what:(Printf.sprintf "n=%d: " (Array.length p)) snap p)
          ps);
    (* The heavy child is the one with the largest subtree (the O(log n)
       climb bound rests on it), smallest id on ties. Any heavy child
       answers every pair correctly, so only the heads themselves can
       show a wrong choice; one store across commits also catches
       subtree sizes leaking from the previous commit. *)
    prop ~count:40 "heads = Heavy_path (legal trees, commit sequence into one store)"
      QCheck2.Gen.(list_size (int_range 2 6) (pair (int_range 1 70) (int_bound 1_000_000)))
      (fun specs ->
        let snap = Snapshot.create () in
        List.for_all
          (fun (n, sd) ->
            let root, p = random_tree (Random.State.make [| sd |]) n in
            Snapshot.commit snap p;
            check_heads ~what:(Printf.sprintf "n=%d: " n) snap ~root p)
          specs);
  ]

(* Double-buffering contract: no reads before the first commit; each
   commit replaces the served tree wholesale, including across node
   counts (grow and shrink reuse the same store). *)
let test_commit_replaces () =
  let snap = Snapshot.create () in
  Alcotest.(check bool) "not ready before any commit" false (Snapshot.ready snap);
  let p1 = [| -1; 0; 1; 2 |] in
  Snapshot.commit snap p1;
  Alcotest.(check bool) "ready after commit" true (Snapshot.ready snap);
  Alcotest.(check bool) "serves p1" true (check_all_pairs p1 = true);
  Alcotest.(check int) "p1 depth" 3 (Snapshot.depth snap 3);
  (* grow past the initial capacity, then shrink: n tracks the last
     committed array, answers never mix the two *)
  let p2 = Array.init 40 (fun v -> v - 1) in
  Snapshot.commit snap p2;
  Alcotest.(check int) "n grows" 40 (Snapshot.n snap);
  Alcotest.(check int) "deep chain" 39 (Snapshot.depth snap 39);
  let p3 = [| 1; -1 |] in
  Snapshot.commit snap p3;
  Alcotest.(check int) "n shrinks" 2 (Snapshot.n snap);
  Alcotest.(check int) "root moved" 1 (Snapshot.root snap 0);
  ignore (check_all_pairs p3)

(* Climbs that stop on equal climb words under different heads: [x] =
   1 has three children 2, 3, 4 whose subtrees (a child each, 5, 6, 7)
   are the same size, so 2 continues the root's heavy path while 3 and
   4 head light paths at one depth, both climbing to [x]. A pair below
   the two light children never climbs, and its NCA is [x], not the
   shallower node. *)
let test_light_siblings () =
  let p = [| -1; 0; 1; 1; 1; 2; 3; 4 |] and x = 1 in
  let snap = Snapshot.create () in
  Snapshot.commit snap p;
  Alcotest.(check (list int))
    "heads of 2, 3, 4" [ 0; 3; 4 ]
    (List.map (Snapshot.head snap) [ 2; 3; 4 ]);
  List.iter
    (fun (u, v) ->
      let what = Printf.sprintf "(%d, %d)" u v in
      Alcotest.(check int) ("nca " ^ what) x (Snapshot.nca snap u v);
      Alcotest.(check int)
        ("route_length " ^ what)
        (naive_depth p u + naive_depth p v - (2 * naive_depth p x))
        (Snapshot.route_length snap u v);
      Alcotest.(check bool)
        ("answer " ^ what)
        true
        (Snapshot.answer snap ~v ~u = naive_answer p ~v ~u))
    [ (6, 7); (7, 6); (3, 7); (6, 4); (3, 4) ];
  ignore (check_pairs snap p)

(* Deeper climbs than n <= 20 reaches: a stabilized bfs tree at
   n = 10^4. *)
let big_n = 10_000

let big_bfs =
  lazy
    (let g =
       Generators.random_connected (Random.State.make [| big_n |]) ~n:big_n ~m:(2 * big_n)
     in
     stabilized_parents (module Builders.Bfs_tree) (big_n, g))

(* Sampled pairs against the naive walks. *)
let test_big_sampled () =
  let n = big_n and p = Lazy.force big_bfs in
  let snap = Snapshot.create () in
  Snapshot.commit snap p;
  let deepest = ref 0 in
  for v = 0 to n - 1 do
    deepest := max !deepest (Snapshot.depth snap v)
  done;
  Alcotest.(check bool) "a tree deeper than the small cases" true (!deepest >= 6);
  let rng = Random.State.make [| n; 1 |] in
  for _ = 1 to 2_000 do
    let v = Random.State.int rng n and u = Random.State.int rng n in
    if Snapshot.answer snap ~v ~u <> naive_answer p ~v ~u then
      Alcotest.failf "n=%d pair (v=%d, u=%d): snapshot answer <> naive walks" n v u
  done

(* Every node's head against [Heavy_path]. *)
let test_big_heads () =
  let p = Array.copy (Lazy.force big_bfs) in
  let root = List.find (fun v -> not (valid p v)) (List.init big_n Fun.id) in
  p.(root) <- -1;
  let snap = Snapshot.create () in
  Snapshot.commit snap p;
  Alcotest.(check bool) "heads = Heavy_path" true (check_heads snap ~root p)

(* ------------------------------------------------------------------ *)
(* Packed-vs-boxed service equivalence. The same episode (graph,
   trace, daemons, seed) through Service.Make and Service.Make_packed
   must produce structurally equal reports — every event outcome, every
   ladder counter, every staleness count — and the same event trace. *)

let trace_of s =
  match Churn.of_string s with Ok t -> t | Error m -> Alcotest.failf "bad trace: %s" m

let event_lines sink =
  List.map (fun e -> Metrics.Json.to_string (Events.event_json e)) (Events.events sink)

let episode_pair (type s)
    (module P : Service.PACKED_TREE_PROTOCOL with type state = s) (sd, g) ~sched
    ~trace =
  let module SB = Service.Make (P) in
  let module SP = Service.Make_packed (P) in
  let boxed_events = Events.ring () and packed_events = Events.ring () in
  let boxed =
    SB.run ~events:boxed_events g ~sched ~fallback:(Scheduler.Distributed 0.5)
      (Random.State.make [| sd; 17 |])
      trace
  in
  let packed =
    SP.run ~events:packed_events g ~sched ~fallback:(Scheduler.Distributed 0.5)
      (Random.State.make [| sd; 17 |])
      trace
  in
  if event_lines boxed_events <> event_lines packed_events then
    QCheck2.Test.fail_reportf "packed/boxed event traces differ under %a on %s"
      Scheduler.pp sched (Churn.name trace);
  if boxed <> packed then
    QCheck2.Test.fail_reportf
      "packed/boxed episode divergence under %a on %s: recovered %b/%b rounds %d/%d \
       steps %d/%d events %d/%d"
      Scheduler.pp sched (Churn.name trace) boxed.Service.recovered
      packed.Service.recovered boxed.Service.rounds packed.Service.rounds
      boxed.Service.steps packed.Service.steps
      (List.length boxed.Service.events)
      (List.length packed.Service.events);
  true

let equiv_traces = [ "flash-crowd:2"; "regional:2"; "maintenance:2@every:2" ]

let equiv_scheds =
  [ Scheduler.Synchronous; Scheduler.Central Scheduler.Random_daemon ]

let episode_roster (type s)
    (module P : Service.PACKED_TREE_PROTOCOL with type state = s) sg =
  List.for_all
    (fun t ->
      List.for_all
        (fun sched -> episode_pair (module P) sg ~sched ~trace:(trace_of t))
        equiv_scheds)
    equiv_traces

let equiv_props =
  [
    prop ~count:8 "bfs: packed episode = boxed episode" (gen_graph 4 14)
      (episode_roster (module Builders.Bfs_tree));
    prop ~count:6 "spt: packed episode = boxed episode" (gen_graph 4 12)
      (episode_roster (module Builders.Spt_tree));
    prop ~count:6 "adhoc-bfs: packed episode = boxed episode" (gen_graph 4 12)
      (episode_roster (module Builders.Adhoc_tree));
  ]

(* The loop monitor runs on both engines. BFS re-parents freely, so a
   BFS wrapper that claims loop-freedom makes the monitor count the
   transient cycles of churn recovery (a regional failure closes some);
   both engines must count the same ones. *)
let test_packed_loop_monitor () =
  let module Looping = struct
    include Builders.Bfs_tree

    let loop_free = true
  end in
  let violations = ref 0 in
  for sd = 1 to 6 do
    let g = Generators.random_connected (Random.State.make [| sd; 3 |]) ~n:12 ~m:18 in
    ignore
      (List.for_all
         (fun t ->
           List.for_all
             (fun sched -> episode_pair (module Looping) (sd, g) ~sched ~trace:(trace_of t))
             equiv_scheds)
         equiv_traces);
    let module S = Service.Make_packed (Looping) in
    let r =
      S.run g ~sched:Scheduler.Synchronous ~fallback:(Scheduler.Distributed 0.5)
        (Random.State.make [| sd; 17 |])
        (trace_of "regional:2")
    in
    List.iter (fun e -> violations := !violations + e.Service.violations) r.Service.events
  done;
  Alcotest.(check bool) "the monitor saw cycles" true (!violations > 0)

(* ------------------------------------------------------------------ *)
(* The E13 mdst known failure, minimized (see EXPERIMENTS.md E13):
   the builder's veto-block — a node remembers a vetoed witness edge
   and refuses to re-adopt it until its own degree changes — breaks
   cross-epoch re-marking livelock, but at silence no degree ever
   changes, so a block held by a bad max-degree node is permanent. The
   builder then settles silent on a valid spanning tree that is NOT an
   FR-tree (the sequential marking closure still finds an applicable
   improvement), failing the is_legal certificate. The paper's degree
   bound itself still holds here: the settled tree has degree
   Δmin + 1. *)

let mdst_silent_illegal rng ~n ~m =
  let module En = Engine.Make (Mdst_builder.P) in
  let g = Generators.random_connected rng ~n ~m in
  let init = En.adversarial rng g in
  let r =
    En.run ~max_steps:2_000_000 ~max_rounds:20_000 g
      (Scheduler.Central Scheduler.Random_daemon)
      rng ~init
  in
  (g, r.En.silent, r.En.legal, r.En.states)

let check_known_failure what g silent legal states ~exact_mindeg =
  Alcotest.(check bool) (what ^ ": silent") true silent;
  Alcotest.(check bool) (what ^ ": illegal") false legal;
  let parent = Array.map (fun s -> s.Mdst_builder.st.St_layer.parent) states in
  Alcotest.(check bool) (what ^ ": still a spanning tree rooted at 0") true
    (Tree.check_parents ~root:0 parent);
  let t = Tree.of_parents ~root:0 parent in
  Alcotest.(check bool) (what ^ ": not an FR-tree (no witness marking)") true
    (Min_degree.find_marking g t = None);
  Alcotest.(check bool) (what ^ ": an improvement is still applicable") true
    (Min_degree.improve_once g t <> None);
  Alcotest.(check bool) (what ^ ": a bad node holds a permanent veto-block") true
    (Array.exists
       (fun s -> s.Mdst_builder.blocked <> None && not s.Mdst_builder.good)
       states);
  match exact_mindeg with
  | None -> ()
  | Some d ->
      Alcotest.(check int) (what ^ ": degree bound still met (Δmin + 1)") (d + 1)
        (Tree.max_degree t)

let test_mdst_known_failure_minimized () =
  let rng = Random.State.make [| 0xA11; 6; 1 |] in
  let g, silent, legal, states = mdst_silent_illegal rng ~n:6 ~m:12 in
  check_known_failure "n=6" g silent legal states
    ~exact_mindeg:(Some (Min_degree.exact g))

(* The original E13 cell verbatim: the serve matrix's RNG derivation
   for (mdst, flash-crowd:2@silence, random, seed 2) at n=16 — the cell
   `repro_cli serve --n 16 --seeds 2 --algos mdst` reports as
   silent-but-illegal. Base stabilization only; churn never fires. *)
let test_mdst_known_failure_e13_cell () =
  let rng =
    Random.State.make
      [| 1; Hashtbl.hash ("mdst", "flash-crowd:2@silence", "random"); 16; 2 |]
  in
  let gen = Option.get (Generators.by_name "gnp") in
  let g = gen rng ~n:16 in
  let _ops = Churn.expand rng g (Churn.Flash_crowd 2) in
  let module En = Engine.Make (Mdst_builder.P) in
  let init = En.adversarial rng g in
  let r =
    En.run ~max_steps:2_000_000 ~max_rounds:20_000 g
      (Scheduler.Central Scheduler.Random_daemon)
      rng ~init
  in
  check_known_failure "E13 cell" g r.En.silent r.En.legal r.En.states
    ~exact_mindeg:None

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "serve"
    [
      ("snapshot", snapshot_props);
      ( "snapshot-unit",
        [
          Alcotest.test_case "commits replace wholesale" `Quick test_commit_replaces;
          Alcotest.test_case "light siblings meet at their parent" `Quick test_light_siblings;
          Alcotest.test_case "sampled pairs at n=10^4 (bfs)" `Quick test_big_sampled;
          Alcotest.test_case "heads = Heavy_path at n=10^4 (bfs)" `Quick test_big_heads;
        ] );
      ("service-equiv", equiv_props);
      ( "service-unit",
        [
          Alcotest.test_case "Make_packed runs the loop monitor like Make" `Quick
            test_packed_loop_monitor;
        ] );
      ( "mdst-known-failure",
        [
          Alcotest.test_case "minimized: veto-block deadlock at n=6" `Quick
            test_mdst_known_failure_minimized;
          Alcotest.test_case "the E13 cell (n=16, seed 2)" `Quick
            test_mdst_known_failure_e13_cell;
        ] );
    ]
