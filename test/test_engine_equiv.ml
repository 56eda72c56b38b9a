(* The incremental engine (Engine.run: move cache, reusable scratch
   views, bitset enabled set and round accounting) must be
   trajectory-identical to the naive executor (Engine.run_reference).
   Property: for random graphs x every scheduler x all four builders,
   both produce the same {states; steps; rounds; silent; legal;
   max_bits} from the same seed. Unit cases pin
   the move-cache invalidation paths: a neighbor's write re-enables a
   cached-disabled node (touch), and a corrupted configuration rebuilds
   the cache from the faulty registers (fault injection). *)

open Repro_graph
open Repro_runtime
open Repro_core

let seed i = Random.State.make [| 0xF00D; i |]

(* ------------------------------------------------------------------ *)
(* The comparison runner. Both executors get their own RNG built from
   the same seed, so scheduler coin flips line up; limits are kept low
   enough that even a starving daemon's stall stays cheap — equivalence
   must hold whatever the termination reason. *)

let equiv (type s) (module P : Protocol.S with type state = s) g sched ~init ~sd =
  let module En = Engine.Make (P) in
  let limits f =
    f ~max_steps:20_000 ~max_rounds:2_000 g sched
      (Random.State.make [| sd; 31 |])
      ~init
  in
  let a = limits (fun ~max_steps ~max_rounds g sched rng ~init ->
      En.run ~max_steps ~max_rounds g sched rng ~init)
  in
  let b = limits (fun ~max_steps ~max_rounds g sched rng ~init ->
      En.run_reference ~max_steps ~max_rounds g sched rng ~init)
  in
  let states_eq =
    Array.length a.En.states = Array.length b.En.states
    && Array.for_all2 P.equal_state a.En.states b.En.states
  in
  let ok =
    states_eq && a.En.steps = b.En.steps && a.En.rounds = b.En.rounds
    && a.En.silent = b.En.silent && a.En.legal = b.En.legal
    && a.En.max_bits = b.En.max_bits
  in
  if not ok then
    QCheck2.Test.fail_reportf
      "divergence under %a: steps %d/%d rounds %d/%d silent %b/%b legal %b/%b \
       max_bits %d/%d states_eq %b"
      Scheduler.pp sched a.En.steps b.En.steps a.En.rounds b.En.rounds a.En.silent
      b.En.silent a.En.legal b.En.legal a.En.max_bits b.En.max_bits
      states_eq;
  true

let all_schedulers = List.map snd Scheduler.all

let equiv_all_schedulers (type s) (module P : Protocol.S with type state = s) g ~sd
    ~adversarial =
  let module En = Engine.Make (P) in
  let init =
    if adversarial then En.adversarial (Random.State.make [| sd; 7 |]) g
    else En.initial g
  in
  List.for_all (fun sched -> equiv (module P) g sched ~init ~sd) all_schedulers

(* ------------------------------------------------------------------ *)
(* Properties: one per builder. MST/MDST start from the designated boot
   configuration (as in E1/E2) and on smaller graphs — their steps are
   expensive; BFS/SPT start adversarially (as in E5/E11). *)

let prop ?(count = 10) name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

let gen_graph lo hi =
  QCheck2.Gen.(
    let* n = int_range lo hi in
    let* extra = int_range 0 n in
    let* sd = int_bound 1_000_000 in
    return (sd, Generators.random_connected (Random.State.make [| sd |]) ~n ~m:(n - 1 + extra)))

let prop_bfs =
  prop ~count:14 "bfs builder: run = run_reference (all daemons)" (gen_graph 2 16)
    (fun (sd, g) -> equiv_all_schedulers (module Bfs_builder.P) g ~sd ~adversarial:true)

let prop_spt =
  prop ~count:14 "spt builder: run = run_reference (all daemons)" (gen_graph 2 16)
    (fun (sd, g) -> equiv_all_schedulers (module Spt_builder.P) g ~sd ~adversarial:true)

let prop_mst =
  prop ~count:8 "mst builder: run = run_reference (all daemons)" (gen_graph 2 9)
    (fun (sd, g) -> equiv_all_schedulers (module Mst_builder.P) g ~sd ~adversarial:false)

let prop_mdst =
  prop ~count:6 "mdst builder: run = run_reference (all daemons)" (gen_graph 2 8)
    (fun (sd, g) -> equiv_all_schedulers (module Mdst_builder.P) g ~sd ~adversarial:false)

(* The properties above draw graphs of at most 16 nodes: one bitset
   word. Here n is 65..160, so the enabled set, the pending set and the
   daemons' scans span three to five words; both stores run under every
   named daemon against the reference. *)
let equiv_both_stores (type s) (module B : Protocol.PACKED with type state = s) (sd, g) =
  let module Ep = Engine_packed.Make (B) in
  let init = Ep.adversarial (Random.State.make [| sd; 7 |]) g in
  List.for_all
    (fun sched ->
      equiv (module B) g sched ~init ~sd
      &&
      let module En = Engine.Make (B) in
      let rng () = Random.State.make [| sd; 31 |] in
      let a = Ep.run ~max_steps:20_000 ~max_rounds:2_000 g sched (rng ()) ~init in
      let b = En.run_reference ~max_steps:20_000 ~max_rounds:2_000 g sched (rng ()) ~init in
      let ok =
        Array.for_all2 B.equal_state a.Ep.states b.En.states
        && (a.Ep.steps, a.Ep.rounds, a.Ep.silent, a.Ep.legal, a.Ep.max_bits)
           = (b.En.steps, b.En.rounds, b.En.silent, b.En.legal, b.En.max_bits)
      in
      if not ok then
        QCheck2.Test.fail_reportf "packed store diverged under %a (n=%d)" Scheduler.pp sched
          (Graph.n g);
      true)
    all_schedulers

let prop_multiword =
  [
    prop ~count:4 "bfs, n > 64: both stores = reference" (gen_graph 65 160)
      (equiv_both_stores (module Bfs_builder.Packed));
    prop ~count:4 "spt, n > 64: both stores = reference" (gen_graph 65 160)
      (equiv_both_stores (module Spt_builder.Packed));
  ]

(* ------------------------------------------------------------------ *)
(* Unit: the move cache is invalidated by a neighbor's write (touch).
   Max-propagation: a node is enabled iff some neighbor holds a larger
   value; its move adopts the neighborhood max. On a path driven by the
   min-id daemon, node v+1's cached move is None until node v's write
   re-enables it — a stale cache would declare silence after one step
   and never propagate the max to the far end. *)

module MaxProp = struct
  type state = int

  let equal_state = Int.equal
  let pp_state = Format.pp_print_int
  let size_bits _ _ = 1
  let initial _g v = if v = 0 then 100 else 0
  let random_state rng _g _v = Random.State.int rng 50

  let step v =
    let best = View.fold (fun acc _ _ s -> max acc s) v.View.self v in
    if best > v.View.self then Some best else None

  let is_legal _g states =
    let mx = Array.fold_left max min_int states in
    Array.for_all (fun s -> s = mx) states

  let potential _ _ = None
  let classify = None
end

module EMax = Engine.Make (MaxProp)

let test_touch_invalidates_cache () =
  let st = seed 1 in
  let g = Generators.path st ~n:12 in
  (* Node 0 holds the max; min-id central daemon steps the frontier node
     each time, so every later node starts cache-disabled and is only
     re-enabled by its predecessor's write. *)
  let r =
    EMax.run g (Scheduler.Central Scheduler.Min_id) st ~init:(EMax.initial g)
  in
  Alcotest.(check bool) "silent" true r.EMax.silent;
  Alcotest.(check bool) "max propagated (stale cache would stop early)" true
    (Array.for_all (fun s -> s = 100) r.EMax.states);
  Alcotest.(check int) "one write per non-max node" 11 r.EMax.steps;
  let r2 =
    EMax.run_reference g (Scheduler.Central Scheduler.Min_id) (seed 1)
      ~init:(EMax.initial g)
  in
  Alcotest.(check int) "steps match reference" r2.EMax.steps r.EMax.steps;
  Alcotest.(check int) "rounds match reference" r2.EMax.rounds r.EMax.rounds

(* Unit: fault injection rebuilds the cache from the corrupted
   registers — a fresh run on a corrupted silent configuration must see
   the corruption (not the stale silence), recover, and do so exactly
   as the reference engine does. *)
let test_fault_injection_invalidates_cache () =
  let st = seed 2 in
  let g = Generators.gnp st ~n:16 ~p:0.3 in
  let r = EMax.run g Scheduler.Synchronous st ~init:(EMax.initial g) in
  Alcotest.(check bool) "stabilized" true (r.EMax.silent && r.EMax.legal);
  let corrupted =
    Fault.corrupt st ~random_state:MaxProp.random_state g r.EMax.states ~k:5
  in
  let run_from eng sd =
    eng g Scheduler.Synchronous (seed sd) ~init:corrupted
  in
  let a = run_from (fun g s rng ~init -> EMax.run g s rng ~init) 3 in
  let b = run_from (fun g s rng ~init -> EMax.run_reference g s rng ~init) 3 in
  Alcotest.(check bool) "recovered" true (a.EMax.silent && a.EMax.legal);
  Alcotest.(check int) "steps match reference" b.EMax.steps a.EMax.steps;
  Alcotest.(check int) "rounds match reference" b.EMax.rounds a.EMax.rounds;
  Array.iteri
    (fun v s -> Alcotest.(check int) (Printf.sprintf "state %d" v) b.EMax.states.(v) s)
    a.EMax.states

(* Unit: the two executors report identical per-round series (round
   boundaries, enabled counts, write counts, register bits), folded
   from each executor's [on_round]/[on_step] hooks. *)
let test_telemetry_series_identical () =
  let g = Generators.gnp (seed 4) ~n:14 ~p:0.3 in
  let series eng =
    let samples = ref [] and writes = ref 0 and total = ref 0 in
    let on_step _ _ =
      incr writes;
      incr total
    in
    let on_round round sts =
      let bits = Array.map (MaxProp.size_bits (Array.length sts)) sts in
      samples :=
        ( round,
          List.length (EMax.enabled g sts),
          !writes,
          !total,
          Array.fold_left max 0 bits,
          Array.fold_left ( + ) 0 bits )
        :: !samples;
      writes := 0
    in
    let init = EMax.adversarial (seed 5) g in
    ignore (eng ~on_round ~on_step g (Scheduler.Central Scheduler.Round_robin) (seed 6) ~init);
    List.rev !samples
  in
  let a =
    series (fun ~on_round ~on_step g s rng ~init -> EMax.run ~on_round ~on_step g s rng ~init)
  in
  let b =
    series (fun ~on_round ~on_step g s rng ~init ->
        EMax.run_reference ~on_round ~on_step g s rng ~init)
  in
  Alcotest.(check int) "same number of samples" (List.length b) (List.length a);
  List.iter2
    (fun (r, e, w, wt, mb, tb) (r', e', w', wt', mb', tb') ->
      Alcotest.(check (list int)) "sample" [ r'; e'; w'; wt'; mb'; tb' ]
        [ r; e; w; wt; mb; tb ])
    a b

let () =
  Alcotest.run "repro_engine_equiv"
    [
      ( "move cache",
        [
          Alcotest.test_case "invalidated by touch" `Quick test_touch_invalidates_cache;
          Alcotest.test_case "invalidated by fault injection" `Quick
            test_fault_injection_invalidates_cache;
          Alcotest.test_case "telemetry series identical" `Quick
            test_telemetry_series_identical;
        ] );
      ("equivalence", [ prop_bfs; prop_spt; prop_mst; prop_mdst ] @ prop_multiword);
    ]
