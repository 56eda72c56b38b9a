(* The domain pool's determinism contract (lib/runtime/pool.mli):
   [Pool.map pool f xs = List.map f xs] — same values, same order — for
   self-contained [f], at every jobs count. Exercised three ways: unit
   edge cases (empty, singleton, exceptions, nested use), a qcheck
   property over random lists and jobs counts, and the contract's
   consumer — the trimmed chaos campaign, whose JSON artifact must come
   back byte-identical at jobs 1/2/4. *)

open Repro_graph
open Repro_runtime
open Repro_campaign
module Json = Metrics.Json

let qcheck ?(count = 100) name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

(* ---------------------------------------------------------------- *)
(* Unit edge cases                                                  *)
(* ---------------------------------------------------------------- *)

let test_empty_and_singleton () =
  Pool.with_pool ~jobs:4 (fun pool ->
      Alcotest.(check (list int)) "empty list" [] (Pool.map pool (fun x -> x * 2) []);
      Alcotest.(check (list int)) "singleton" [ 6 ] (Pool.map pool (fun x -> x * 2) [ 3 ]))

let test_jobs_clamped () =
  Pool.with_pool ~jobs:0 (fun pool ->
      Alcotest.(check int) "jobs < 1 clamps to 1" 1 (Pool.jobs pool);
      Alcotest.(check (list int))
        "jobs=1 map" [ 1; 4; 9 ]
        (Pool.map pool (fun x -> x * x) [ 1; 2; 3 ]))

exception Boom of int

let test_exception_propagation () =
  Pool.with_pool ~jobs:3 (fun pool ->
      (* The first failing item in LIST order must win, even though item
         9 (a later index) fails with no sleep while item 2's worker is
         just as eager: both raise, the submitter re-raises index 2's. *)
      let xs = List.init 10 (fun i -> i) in
      (match Pool.map pool (fun x -> if x >= 2 then raise (Boom x) else x) xs with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom k -> Alcotest.(check int) "first failure in list order" 2 k);
      (* The pool must remain usable after a failed batch. *)
      Alcotest.(check (list int))
        "pool usable after exception" [ 0; 2; 4 ]
        (Pool.map pool (fun x -> 2 * x) [ 0; 1; 2 ]))

let test_nested_map_falls_back () =
  Pool.with_pool ~jobs:3 (fun pool ->
      (* A task that re-enters [Pool.map] on the same pool must not
         deadlock on the fixed worker set: the guard routes the inner
         map through sequential List.map. *)
      let rows =
        Pool.map pool
          (fun i -> Pool.map pool (fun j -> (10 * i) + j) [ 0; 1; 2 ])
          [ 1; 2; 3; 4 ]
      in
      Alcotest.(check (list (list int)))
        "nested map = nested List.map"
        (List.map (fun i -> List.map (fun j -> (10 * i) + j) [ 0; 1; 2 ]) [ 1; 2; 3; 4 ])
        rows)

let test_shutdown_idempotent () =
  let pool = Pool.create ~jobs:2 () in
  Alcotest.(check (list int)) "map before shutdown" [ 1; 2 ] (Pool.map pool (fun x -> x) [ 1; 2 ]);
  Pool.shutdown pool;
  Pool.shutdown pool;
  match Pool.map pool (fun x -> x) [ 1; 2; 3 ] with
  | _ -> Alcotest.fail "map on a shut-down pool must raise"
  | exception Invalid_argument _ -> ()

(* ---------------------------------------------------------------- *)
(* Property: Pool.map = List.map at any jobs count                  *)
(* ---------------------------------------------------------------- *)

let prop_map_matches_sequential =
  qcheck ~count:60 "Pool.map f xs = List.map f xs (order and values)"
    QCheck2.Gen.(pair (1 -- 6) (list_size (0 -- 40) (int_bound 10_000)))
    (fun (jobs, xs) ->
      (* A CPU-visible f: each item hashes through its own tiny seeded
         RNG, so reordering or dropping an item changes the output. *)
      let f x =
        let st = Random.State.make [| 0x500D; x |] in
        (x * 31) + Random.State.int st 1000
      in
      Pool.with_pool ~jobs (fun pool -> Pool.map pool f xs = List.map f xs))

(* ---------------------------------------------------------------- *)
(* The consumer: trimmed chaos campaign, identical across jobs      *)
(* ---------------------------------------------------------------- *)

let trimmed_campaign jobs =
  let gen =
    match Generators.by_name "random" with
    | Some g -> g
    | None -> Alcotest.fail "random generator missing"
  in
  let daemons =
    List.filter_map
      (fun name -> Option.map (fun s -> (name, s)) (Scheduler.by_name name))
      [ "random"; "greedy-max" ]
  in
  Pool.with_pool ~jobs (fun pool ->
      let cells =
        Campaign.chaos_matrix ~pool ~gen ~n:12 ~seeds:2 ~seed_base:20260805
          ~algos:Builders.[ bfs; spt ]
          ~plans:(List.filteri (fun i _ -> i < 2) Fault.Plan.defaults)
          ~daemons ()
      in
      Json.to_string
        (Campaign.campaign_json ~family:"random" ~n:12 ~seeds:2 ~seed_base:20260805
           cells))

let test_campaign_identical_across_jobs () =
  let j1 = trimmed_campaign 1 in
  let j2 = trimmed_campaign 2 in
  let j4 = trimmed_campaign 4 in
  Alcotest.(check string) "jobs 2 artifact = jobs 1 artifact" j1 j2;
  Alcotest.(check string) "jobs 4 artifact = jobs 1 artifact" j1 j4;
  (* Belt and braces: the artifact is well-formed JSON with the cells the
     matrix promises (2 algos x 2 plans x 2 daemons x 2 seeds). *)
  match Json.of_string j1 with
  | Some (Json.Obj fields) -> (
      match List.assoc_opt "cells" fields with
      | Some (Json.List cells) -> Alcotest.(check int) "cell count" 16 (List.length cells)
      | _ -> Alcotest.fail "artifact missing cells list")
  | _ -> Alcotest.fail "artifact is not a JSON object"

let () =
  Alcotest.run "repro_pool"
    [
      ( "edges",
        [
          Alcotest.test_case "empty + singleton" `Quick test_empty_and_singleton;
          Alcotest.test_case "jobs clamped to >= 1" `Quick test_jobs_clamped;
          Alcotest.test_case "exception: first in list order, pool survives" `Quick
            test_exception_propagation;
          Alcotest.test_case "nested map falls back sequentially" `Quick
            test_nested_map_falls_back;
          Alcotest.test_case "shutdown idempotent, map after raises" `Quick
            test_shutdown_idempotent;
        ] );
      ("property", [ prop_map_matches_sequential ]);
      ( "campaign",
        [
          Alcotest.test_case "trimmed chaos identical at jobs 1/2/4" `Slow
            test_campaign_identical_across_jobs;
        ] );
    ]
