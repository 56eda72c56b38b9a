(* Tests for the repro_runtime state-model engine: views, schedulers,
   round accounting (Section II-A definition), fault injection, and space
   accounting. Uses two toy self-stabilizing protocols. *)

open Repro_graph
open Repro_runtime

let seed i = Random.State.make [| 0xBEEF; i |]

(* ------------------------------------------------------------------ *)
(* Toy protocol 1: self-stabilizing BFS distances to the fixed node 0.
   Rule: d(0) = 0; d(v) = 1 + min over neighbors, capped at n. The unique
   fixpoint is the true hop distance, so silent <=> legal. *)

module Dist0 = struct
  type state = int

  let equal_state = Int.equal
  let pp_state = Format.pp_print_int
  let size_bits _ _ = 0
  let initial _g v = if v = 0 then 0 else 1
  let random_state rng g _v = Random.State.int rng (Graph.n g + 1)

  let target (v : state View.t) =
    if v.View.id = 0 then 0
    else
      let best = View.fold (fun acc _ _ s -> min acc s) max_int v in
      min v.View.n (if best = max_int then v.View.n else best + 1)

  let step v = if v.View.self = target v then None else Some (target v)

  let is_legal g states =
    let d = Traversal.bfs_distances g ~src:0 in
    Array.for_all (fun v -> states.(v) = min d.(v) (Graph.n g)) (Array.init (Graph.n g) Fun.id)

  (* Distance defect — exercised by the telemetry tests. *)
  let potential g states =
    let d = Traversal.bfs_distances g ~src:0 in
    let n = Graph.n g in
    let total = ref 0 in
    Array.iteri (fun v s -> total := !total + abs (min s n - min d.(v) n)) states;
    Some !total
  let classify = None
end

module EDist = Engine.Make (Dist0)

(* ------------------------------------------------------------------ *)
(* Toy protocol 2: greedy proper coloring with colors 0..Δ. A node is
   enabled iff it conflicts with a neighbor and its id is larger than
   every conflicting neighbor's id; it then takes the smallest free
   color. Converges under every daemon, including the synchronous one. *)

module Coloring = struct
  type state = int

  let equal_state = Int.equal
  let pp_state = Format.pp_print_int
  let size_bits _ _ = 0
  let initial _ _ = 0
  let random_state rng g _ = Random.State.int rng (Graph.max_degree g + 1)

  let step v =
    let conflicts =
      View.fold (fun acc id _ s -> if s = v.View.self then id :: acc else acc) [] v
    in
    if conflicts = [] || List.exists (fun id -> id > v.View.id) conflicts then None
    else begin
      let used = View.fold (fun acc _ _ s -> s :: acc) [] v in
      let rec smallest c = if List.mem c used then smallest (c + 1) else c in
      Some (smallest 0)
    end

  let is_legal g states =
    Array.for_all
      (fun (e : Graph.Edge.t) -> states.(e.u) <> states.(e.v))
      (Graph.edges g)

  let potential _ _ = None
  let classify = None
end

module EColor = Engine.Make (Coloring)

(* ------------------------------------------------------------------ *)
(* Toy protocol 3: perpetually enabled, always legal. Exercises engine
   limits. *)

module Restless = struct
  type state = int

  let equal_state = Int.equal
  let pp_state = Format.pp_print_int
  let size_bits _ _ = 1
  let initial _ _ = 0
  let random_state _ _ _ = 0
  let step v = Some (1 - v.View.self)
  let is_legal _ _ = true
  let potential _ _ = None
  let classify = None
end

module ERestless = Engine.Make (Restless)

(* ------------------------------------------------------------------ *)
(* View *)

let test_view () =
  let g = Graph.of_edges 4 [ (0, 1, 5); (0, 2, 7); (1, 2, 3); (2, 3, 9) ] in
  let states = [| 10; 11; 12; 13 |] in
  let v = EDist.view g states 2 in
  Alcotest.(check int) "id" 2 v.View.id;
  Alcotest.(check int) "degree" 3 v.View.degree;
  Alcotest.(check (array int)) "nbr ids" [| 0; 1; 3 |] v.View.nbr_ids;
  Alcotest.(check int) "state of 3" 13 (View.state_of v 3);
  Alcotest.(check int) "weight to 0" 7 (View.weight_to v 0);
  Alcotest.(check int) "weight to 3" 9 (View.weight_to v 3);
  Alcotest.(check bool) "is_neighbor 1" true (View.is_neighbor v 1);
  Alcotest.(check bool) "not neighbor 2" false (View.is_neighbor v 2);
  Alcotest.(check int) "fold sum" (10 + 11 + 13) (View.fold (fun a _ _ s -> a + s) 0 v);
  Alcotest.(check bool) "exists" true (View.exists (fun id _ _ -> id = 3) v);
  Alcotest.(check bool) "for_all" true (View.for_all (fun _ w _ -> w > 0) v);
  (match View.state_of v 2 with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "expected Not_found")

(* ------------------------------------------------------------------ *)
(* Space helpers *)

let test_space () =
  Alcotest.(check int) "log2 1" 0 (Space.log2_ceil 1);
  Alcotest.(check int) "log2 2" 1 (Space.log2_ceil 2);
  Alcotest.(check int) "log2 3" 2 (Space.log2_ceil 3);
  Alcotest.(check int) "log2 1024" 10 (Space.log2_ceil 1024);
  Alcotest.(check int) "log2 1025" 11 (Space.log2_ceil 1025);
  Alcotest.(check bool) "id bits grows" true (Space.id_bits 1000 > Space.id_bits 10);
  Alcotest.(check int) "opt none" 1 (Space.opt (fun _ -> 5) None);
  Alcotest.(check int) "opt some" 6 (Space.opt (fun _ -> 5) (Some ()))

(* ------------------------------------------------------------------ *)
(* Engine: convergence of the toys under all schedulers *)

let all_schedulers = List.map snd Scheduler.all

let test_dist_converges_everywhere () =
  let st = seed 1 in
  let g = Generators.gnp st ~n:25 ~p:0.15 in
  List.iter
    (fun sched ->
      let name = Format.asprintf "%a" Scheduler.pp sched in
      let init = EDist.adversarial st g in
      let r = EDist.run g sched st ~init in
      Alcotest.(check bool) (name ^ " silent") true r.EDist.silent;
      Alcotest.(check bool) (name ^ " legal") true r.EDist.legal;
      Alcotest.(check bool) (name ^ " made steps") true (r.EDist.steps > 0))
    all_schedulers

let test_dist_from_initial () =
  let st = seed 2 in
  let g = Generators.ring st ~n:16 in
  let r = EDist.run g Scheduler.Synchronous st ~init:(EDist.initial g) in
  Alcotest.(check bool) "silent" true r.EDist.silent;
  let d = Traversal.bfs_distances g ~src:0 in
  Array.iteri
    (fun v dv -> Alcotest.(check int) (Printf.sprintf "d(%d)" v) dv r.EDist.states.(v))
    d

let test_dist_single_node () =
  let g = Graph.of_edges 1 [] in
  let st = seed 3 in
  let r = EDist.run g (Scheduler.Central Scheduler.Random_daemon) st ~init:[| 5 |] in
  Alcotest.(check bool) "silent" true r.EDist.silent;
  Alcotest.(check int) "d(0)=0" 0 r.EDist.states.(0)

let test_coloring_converges () =
  let st = seed 4 in
  let g = Generators.gnp st ~n:20 ~p:0.3 in
  List.iter
    (fun sched ->
      let name = Format.asprintf "%a" Scheduler.pp sched in
      let init = EColor.adversarial st g in
      let r = EColor.run g sched st ~init in
      Alcotest.(check bool) (name ^ " silent") true r.EColor.silent;
      Alcotest.(check bool) (name ^ " legal") true r.EColor.legal)
    all_schedulers

(* Rounds: under the synchronous daemon every enabled node steps each
   round, so steps >= rounds and the BFS toy needs at most ~n rounds. *)
let test_round_accounting_synchronous () =
  let st = seed 5 in
  let g = Generators.path st ~n:20 in
  (* Worst case for distance propagation: all registers say 0. *)
  let init = Array.make 20 0 in
  let r = EDist.run g Scheduler.Synchronous st ~init in
  Alcotest.(check bool) "silent" true r.EDist.silent;
  Alcotest.(check bool) "rounds <= 2n" true (r.EDist.rounds <= 40);
  Alcotest.(check bool) "rounds >= diameter-ish" true (r.EDist.rounds >= 10);
  Alcotest.(check bool) "steps >= rounds" true (r.EDist.steps >= r.EDist.rounds)

(* The round count must be scheduler-independent up to polynomial factors;
   under the LIFO adversary the BFS toy still converges in O(n^2) rounds. *)
let test_round_accounting_adversary () =
  let st = seed 6 in
  let g = Generators.path st ~n:12 in
  let init = Array.make 12 0 in
  let r = EDist.run g (Scheduler.Central Scheduler.Lifo_adversary) st ~init in
  Alcotest.(check bool) "silent" true r.EDist.silent;
  Alcotest.(check bool) "rounds bounded" true (r.EDist.rounds <= 12 * 12)

let test_on_round_callback () =
  let st = seed 7 in
  let g = Generators.ring st ~n:10 in
  let boundaries = ref [] in
  let r =
    EDist.run g Scheduler.Synchronous st
      ~on_round:(fun i _ -> boundaries := i :: !boundaries)
      ~init:(EDist.adversarial st g)
  in
  let bs = List.rev !boundaries in
  Alcotest.(check bool) "starts at 0" true (List.hd bs = 0);
  Alcotest.(check int) "all boundaries seen" (r.EDist.rounds + 1) (List.length bs);
  Alcotest.(check bool) "increasing" true (bs = List.sort compare bs)

let test_limits () =
  let st = seed 8 in
  let g = Generators.ring st ~n:6 in
  let r =
    ERestless.run g Scheduler.Synchronous st ~max_rounds:17 ~init:(ERestless.initial g)
  in
  Alcotest.(check bool) "not silent" false r.ERestless.silent;
  Alcotest.(check int) "hit round limit" 17 r.ERestless.rounds;
  let r2 =
    ERestless.run g (Scheduler.Central Scheduler.Random_daemon) st ~max_steps:100
      ~init:(ERestless.initial g)
  in
  Alcotest.(check int) "hit step limit" 100 r2.ERestless.steps

let test_enabled_and_silent () =
  let st = seed 11 in
  let g = Generators.ring st ~n:8 in
  let init = EDist.initial g in
  Alcotest.(check bool) "initially not silent" false (EDist.silent g init);
  let r = EDist.run g Scheduler.Synchronous st ~init in
  Alcotest.(check bool) "finally silent" true (EDist.silent g r.EDist.states);
  Alcotest.(check (list int)) "no enabled nodes" [] (EDist.enabled g r.EDist.states)

(* ------------------------------------------------------------------ *)
(* Fault injection *)

let test_fault_corrupt_nodes () =
  let st = seed 12 in
  let g = Generators.ring st ~n:10 in
  let r = EDist.run g Scheduler.Synchronous st ~init:(EDist.initial g) in
  let states = r.EDist.states in
  let corrupted =
    Fault.corrupt_nodes st ~random_state:Dist0.random_state g states [ 3; 7 ]
  in
  (* Only nodes 3 and 7 may differ. *)
  Array.iteri
    (fun v s -> if v <> 3 && v <> 7 then Alcotest.(check int) "untouched" states.(v) s)
    corrupted

let test_fault_recovery () =
  let st = seed 13 in
  let g = Generators.gnp st ~n:20 ~p:0.2 in
  let r = EDist.run g Scheduler.Synchronous st ~init:(EDist.initial g) in
  Alcotest.(check bool) "stable" true r.EDist.silent;
  for k = 1 to 5 do
    let corrupted =
      Fault.corrupt st ~random_state:Dist0.random_state g r.EDist.states ~k:(k * 4)
    in
    let r2 = EDist.run g Scheduler.Synchronous st ~init:corrupted in
    Alcotest.(check bool) "recovers" true (r2.EDist.silent && r2.EDist.legal)
  done

let test_fault_k_clamped () =
  let st = seed 14 in
  let g = Generators.ring st ~n:5 in
  let states = Array.make 5 0 in
  let c = Fault.corrupt st ~random_state:Dist0.random_state g states ~k:50 in
  Alcotest.(check int) "length preserved" 5 (Array.length c)

(* ------------------------------------------------------------------ *)
(* Properties *)

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:60 ~name gen f)

let gen_net =
  QCheck2.Gen.(
    let* n = int_range 2 20 in
    let* extra = int_range 0 n in
    let* s = int_bound 1_000_000 in
    return (s, Generators.random_connected (Random.State.make [| s |]) ~n ~m:(n - 1 + extra)))

let prop_dist_self_stabilizes =
  prop "Dist0 stabilizes from arbitrary states under random daemon" gen_net
    (fun (s, g) ->
      let st = Random.State.make [| s; 17 |] in
      let init = EDist.adversarial st g in
      let r = EDist.run g (Scheduler.Central Scheduler.Random_daemon) st ~init in
      r.EDist.silent && r.EDist.legal)

let prop_coloring_self_stabilizes =
  prop "Coloring stabilizes from arbitrary states under adversary" gen_net
    (fun (s, g) ->
      let st = Random.State.make [| s; 23 |] in
      let init = EColor.adversarial st g in
      let r = EColor.run g (Scheduler.Central Scheduler.Lifo_adversary) st ~init in
      r.EColor.silent && r.EColor.legal)

let prop_silence_is_stable =
  prop "re-running from a silent configuration does nothing" gen_net (fun (s, g) ->
      let st = Random.State.make [| s; 29 |] in
      let r = EDist.run g Scheduler.Synchronous st ~init:(EDist.adversarial st g) in
      let r2 = EDist.run g Scheduler.Synchronous st ~init:r.EDist.states in
      r2.EDist.steps = 0 && r2.EDist.rounds = 0 && r2.EDist.silent)

(* Bitset against a [bool array] model. Capacities 1..200 straddle the
   32-bit word boundaries, and each set has its own density, from empty
   to full. *)
let gen_bitset_pair =
  QCheck2.Gen.(
    let* cap = int_range 1 200 in
    let set =
      let* density = int_bound 4 in
      array_size (return cap) (map (fun x -> x < density) (int_bound 3))
    in
    let* a = set and* b = set in
    return (cap, a, b))

let bitset_of model =
  let t = Bitset.create (Array.length model) in
  (* Insert, insert again and remove the non-members, so [add] and
     [remove] both see present and absent bits. *)
  Array.iteri (fun v _ -> Bitset.add t v) model;
  Array.iteri (fun v _ -> Bitset.add t v) model;
  Array.iteri (fun v m -> if not m then Bitset.remove t v) model;
  Array.iteri (fun v m -> if not m then Bitset.remove t v) model;
  t

let members model =
  List.filter (fun v -> model.(v)) (List.init (Array.length model) Fun.id)

let bitset_agrees t model =
  let expect = members model in
  let seen = ref [] in
  Bitset.iter (fun v -> seen := v :: !seen) t;
  List.rev !seen = expect
  && Bitset.to_list t = expect
  && Bitset.fold (fun acc v -> v :: acc) [] t = List.rev expect
  && Bitset.cardinal t = List.length expect
  && Bitset.is_empty t = (expect = [])
  && List.for_all (fun v -> Bitset.mem t v = model.(v)) (List.init (Array.length model) Fun.id)
  && List.for_all2 (fun k v -> Bitset.nth t k = v) (List.init (List.length expect) Fun.id) expect

let prop_bitset_model =
  prop "bitset = bool array model" gen_bitset_pair (fun (cap, a, b) ->
      (* The top bit of every word is a member of [a]. *)
      Array.iteri (fun v _ -> if v land 31 = 31 then a.(v) <- true) a;
      let ta = bitset_of a and tb = bitset_of b in
      let copy = Bitset.create cap in
      Bitset.copy_from ~src:ta ~dst:copy;
      let inter = Array.map2 ( && ) a b in
      Bitset.inter_inplace ta tb;
      bitset_agrees copy a && bitset_agrees tb b && bitset_agrees ta inter
      && (match Bitset.nth ta (Bitset.cardinal ta) with
         | _ -> false
         | exception Invalid_argument _ -> true))

let () =
  Alcotest.run "repro_runtime"
    [
      ("view", [ Alcotest.test_case "accessors" `Quick test_view ]);
      ("space", [ Alcotest.test_case "helpers" `Quick test_space ]);
      ( "engine",
        [
          Alcotest.test_case "dist converges (all daemons)" `Quick
            test_dist_converges_everywhere;
          Alcotest.test_case "dist from initial" `Quick test_dist_from_initial;
          Alcotest.test_case "single node" `Quick test_dist_single_node;
          Alcotest.test_case "coloring converges (all daemons)" `Quick
            test_coloring_converges;
          Alcotest.test_case "rounds: synchronous" `Quick test_round_accounting_synchronous;
          Alcotest.test_case "rounds: adversary" `Quick test_round_accounting_adversary;
          Alcotest.test_case "on_round callback" `Quick test_on_round_callback;
          Alcotest.test_case "limits" `Quick test_limits;
          Alcotest.test_case "enabled/silent" `Quick test_enabled_and_silent;
        ] );
      ( "fault",
        [
          Alcotest.test_case "corrupt_nodes" `Quick test_fault_corrupt_nodes;
          Alcotest.test_case "recovery" `Quick test_fault_recovery;
          Alcotest.test_case "k clamped" `Quick test_fault_k_clamped;
        ] );
      ( "properties",
        [ prop_dist_self_stabilizes; prop_coloring_self_stabilizes; prop_silence_is_stable ]
      );
      ("bitset", [ prop_bitset_model ]);
    ]
