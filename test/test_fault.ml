(* Fault-injection layer: corruption invariants (exactly [min k n]
   registers change, the input is never aliased, pinned seeds are
   deterministic), the explicit-node corruptor's input handling (dedupe,
   out-of-range, empty), the single-bit-flip payload, the fault-plan
   grammar round-trip, and target selection on known topologies. *)

open Repro_graph
open Repro_runtime

let seed i = Random.State.make [| 0xFA17; i |]

(* Integer registers: initial values are small (< 1000), corrupted draws
   land in [1000, 1_001_000), so a corrupted register never equals its
   original value and the changed set is exactly the corrupted set. *)
let random_state rng _g _v = 1000 + Random.State.int rng 1_000_000

let mk_states n = Array.init n (fun v -> v)
let changed a b = Array.to_list (Array.mapi (fun i x -> (i, x <> b.(i)) ) a)
                  |> List.filter snd |> List.map fst

let prop ?(count = 30) name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

let gen_graph =
  QCheck2.Gen.(
    let* n = int_range 1 24 in
    let* extra = int_range 0 n in
    let* sd = int_bound 1_000_000 in
    return (sd, Generators.random_connected (Random.State.make [| sd |]) ~n ~m:(n - 1 + extra)))

(* ------------------------------------------------------------------ *)
(* corrupt *)

let prop_corrupt_count =
  prop "corrupt changes exactly min k n registers"
    QCheck2.Gen.(
      let* (sd, g) = gen_graph in
      let* k = int_range (-2) 30 in
      return (sd, g, k))
    (fun (sd, g, k) ->
      let n = Graph.n g in
      let states = mk_states n in
      let out = Fault.corrupt (seed sd) ~random_state g states ~k in
      List.length (changed states out) = min (max k 0) n && Array.length out = n)

let prop_corrupt_no_alias =
  prop "corrupt never returns the input array"
    QCheck2.Gen.(
      let* (sd, g) = gen_graph in
      let* k = int_range 0 5 in
      return (sd, g, k))
    (fun (sd, g, k) ->
      let states = mk_states (Graph.n g) in
      let out = Fault.corrupt (seed sd) ~random_state g states ~k in
      out != states && Array.for_all (fun v -> v < 1000) states)

let prop_corrupt_deterministic =
  prop "corrupt is deterministic under a pinned seed" gen_graph (fun (sd, g) ->
      let states = mk_states (Graph.n g) in
      let a = Fault.corrupt (seed sd) ~random_state g states ~k:3 in
      let b = Fault.corrupt (seed sd) ~random_state g states ~k:3 in
      a = b)

let test_corrupt_noop_no_draws () =
  (* k <= 0 must not consume randomness: the RNG stream afterwards is
     identical to a fresh one. *)
  let g = Generators.path (seed 1) ~n:6 in
  let states = mk_states 6 in
  let rng = seed 42 in
  let out = Fault.corrupt rng ~random_state g states ~k:0 in
  Alcotest.(check bool) "copy equals input" true (out = states);
  Alcotest.(check bool) "copy is fresh" true (out != states);
  Alcotest.(check int) "no RNG draw happened" (Random.State.bits (seed 42))
    (Random.State.bits rng)

(* ------------------------------------------------------------------ *)
(* corrupt_nodes *)

let test_corrupt_nodes_dedupe () =
  let g = Generators.path (seed 2) ~n:8 in
  let states = mk_states 8 in
  let out = Fault.corrupt_nodes (seed 3) ~random_state g states [ 5; 5; 2; 5; 2 ] in
  Alcotest.(check (list int)) "exactly the listed nodes, once each" [ 2; 5 ]
    (changed states out)

let test_corrupt_nodes_out_of_range () =
  let g = Generators.path (seed 2) ~n:8 in
  let states = mk_states 8 in
  List.iter
    (fun bad ->
      Alcotest.check_raises
        (Printf.sprintf "node %d rejected" bad)
        (Invalid_argument
           (Printf.sprintf "Fault.corrupt_nodes: node id %d out of range [0,8)" bad))
        (fun () -> ignore (Fault.corrupt_nodes (seed 3) ~random_state g states [ 1; bad ])))
    [ -1; 8; 100 ];
  let out = Fault.corrupt_nodes (seed 3) ~random_state g states [] in
  Alcotest.(check (list int)) "empty list is a no-op copy" [] (changed states out)

(* ------------------------------------------------------------------ *)
(* bitflip *)

type reg = { a : int; b : int }

let is_pow2 x = x > 0 && x land (x - 1) = 0

let prop_bitflip_single_bit =
  prop ~count:100 "bitflip flips exactly one low bit of one field"
    QCheck2.Gen.(
      let* sd = int_bound 1_000_000 in
      let* a = int_bound 10_000 in
      let* b = int_bound 10_000 in
      return (sd, a, b))
    (fun (sd, a, b) ->
      let s = { a; b } in
      let s' = Fault.bitflip (seed sd) s in
      let da = s.a lxor s'.a and db = s.b lxor s'.b in
      (is_pow2 da && da < 65536 && db = 0) || (is_pow2 db && db < 65536 && da = 0))

let test_bitflip_deterministic () =
  let s = { a = 12345; b = 678 } in
  let x = Fault.bitflip (seed 9) s in
  let y = Fault.bitflip (seed 9) s in
  Alcotest.(check bool) "same seed, same flip" true (x.a = y.a && x.b = y.b);
  Alcotest.(check bool) "original untouched" true (s.a = 12345 && s.b = 678)

(* ------------------------------------------------------------------ *)
(* Plan grammar *)

let plan = Alcotest.testable Fault.Plan.pp ( = )

let test_plan_roundtrip () =
  List.iter
    (fun p ->
      Alcotest.(check (result plan string))
        (Fault.Plan.name p) (Ok p)
        (Fault.Plan.of_string (Fault.Plan.name p)))
    (Fault.Plan.defaults
    @ Fault.Plan.
        [
          make (Nodes [ 1; 2; 3 ]) ~payload:Bitflip ~timing:(Periodic 7);
          make Subtree ~payload:(Stale 4) ~timing:(Poisson 0.25);
          make Root;
        ])

let test_plan_parsing () =
  let open Fault.Plan in
  let ok s p = Alcotest.(check (result plan string)) s (Ok p) (of_string s) in
  ok "random:3" (make (Random_nodes 3));
  ok "root/bitflip" (make Root ~payload:Bitflip);
  ok "deepest@periodic:5" (make Deepest ~timing:(Periodic 5));
  ok "nodes:2+0+2/stale:1@silence" (make (Nodes [ 2; 0; 2 ]) ~payload:(Stale 1));
  List.iter
    (fun s ->
      match Fault.Plan.of_string s with
      | Error _ -> ()
      | Ok p -> Alcotest.failf "%S parsed as %s" s (Fault.Plan.name p))
    [ ""; "random"; "random:0"; "root/none"; "root@sometimes"; "root/bitflip@poisson:2" ];
  match parse_list "root, deepest/bitflip" with
  | Ok [ p1; p2 ] ->
      Alcotest.check plan "list head" (make Root) p1;
      Alcotest.check plan "list tail" (make Deepest ~payload:Bitflip) p2
  | _ -> Alcotest.fail "parse_list failed"

(* ------------------------------------------------------------------ *)
(* Target selection *)

let test_select () =
  (* path 0-1-2-...-9: root is 0, the unique deepest node is 9. *)
  let g = Generators.path (seed 5) ~n:10 in
  Alcotest.(check (list int)) "root" [ 0 ] (Fault.select (seed 6) g Fault.Plan.Root);
  Alcotest.(check (list int)) "deepest" [ 9 ] (Fault.select (seed 6) g Fault.Plan.Deepest);
  Alcotest.(check (list int)) "explicit nodes, deduped, sorted" [ 1; 4 ]
    (Fault.select (seed 6) g (Fault.Plan.Nodes [ 4; 1; 4 ]));
  Alcotest.check_raises "explicit out-of-range"
    (Invalid_argument "Fault.corrupt_nodes: node id 10 out of range [0,10)") (fun () ->
      ignore (Fault.select (seed 6) g (Fault.Plan.Nodes [ 10 ])));
  let r = Fault.select (seed 7) g (Fault.Plan.Random_nodes 4) in
  Alcotest.(check int) "random:4 picks 4" 4 (List.length r);
  Alcotest.(check (list int)) "random nodes sorted+deduped" (List.sort_uniq compare r) r;
  (* a subtree of the canonical BFS tree of a path is a suffix i..9 *)
  let s = Fault.select (seed 8) g Fault.Plan.Subtree in
  let lo = List.hd s in
  Alcotest.(check (list int)) "subtree = suffix of the path"
    (List.init (10 - lo) (fun i -> lo + i))
    s

let test_stale_payload () =
  let g = Generators.path (seed 5) ~n:6 in
  let states = mk_states 6 in
  let old = Array.make 6 777 in
  let p = Fault.Plan.make Fault.Plan.Root ~payload:(Fault.Plan.Stale 2) in
  let nodes, out =
    Fault.apply_plan (seed 9) ~random_state ~stale:(fun d -> if d = 2 then Some old else None)
      g states p
  in
  Alcotest.(check (list int)) "root injected" [ 0 ] nodes;
  Alcotest.(check int) "stale register replayed" 777 out.(0);
  (* without history the payload falls back to randomize *)
  let nodes, out = Fault.apply_plan (seed 9) ~random_state g states p in
  Alcotest.(check (list int)) "root injected (fallback)" [ 0 ] nodes;
  Alcotest.(check bool) "fallback randomized" true (out.(0) >= 1000)

let () =
  Alcotest.run "repro_fault"
    [
      ( "corrupt",
        [
          prop_corrupt_count;
          prop_corrupt_no_alias;
          prop_corrupt_deterministic;
          Alcotest.test_case "k<=0 is a no-op copy without draws" `Quick
            test_corrupt_noop_no_draws;
        ] );
      ( "corrupt_nodes",
        [
          Alcotest.test_case "dedupes the node list" `Quick test_corrupt_nodes_dedupe;
          Alcotest.test_case "rejects out-of-range ids" `Quick
            test_corrupt_nodes_out_of_range;
        ] );
      ( "bitflip",
        [
          prop_bitflip_single_bit;
          Alcotest.test_case "deterministic and non-mutating" `Quick
            test_bitflip_deterministic;
        ] );
      ( "plan",
        [
          Alcotest.test_case "grammar round-trip" `Quick test_plan_roundtrip;
          Alcotest.test_case "parsing" `Quick test_plan_parsing;
        ] );
      ( "select",
        [
          Alcotest.test_case "targets on a path" `Quick test_select;
          Alcotest.test_case "stale payload replay + fallback" `Quick test_stale_payload;
        ] );
    ]
