(* Chaos harness: the convergence watchdog classifies deliberately
   non-converging runs (livelock, stalled potential) instead of bare
   limit exhaustion; the engine's [?adversary] hook injects faults that
   count as neither steps nor writes; the potential-greedy daemons keep
   the two executors trajectory-identical; and a full chaos episode
   produces recovery records with plausible gap/radius/touched fields. *)

open Repro_graph
open Repro_runtime
open Repro_core

let seed i = Random.State.make [| 0xC4A0; i |]

(* ------------------------------------------------------------------ *)
(* Toy protocols driving the watchdog *)

(* Ping-pong: every node always flips its bit. Under the synchronous
   daemon the configuration alternates between X and ~X forever — a
   period-2 livelock. *)
module Pingpong = struct
  type state = int

  let equal_state = Int.equal
  let pp_state = Format.pp_print_int
  let size_bits _ _ = 1
  let initial _ _ = 0
  let random_state rng _ _ = Random.State.int rng 2
  let step view = Some (1 - view.View.self)
  let is_legal _ _ = false
  let potential _ _ = None
  let classify = None
end

(* Counter: every node increments forever; every configuration is fresh
   (no hash ever repeats) but the declared potential never decreases —
   a stalled run. *)
module Counter = struct
  type state = int

  let equal_state = Int.equal
  let pp_state = Format.pp_print_int
  let size_bits _ _ = 8
  let initial _ _ = 0
  let random_state rng _ _ = Random.State.int rng 100
  let step view = Some (view.View.self + 1)
  let is_legal _ _ = false
  let potential _ _ = Some 42
  let classify = None
end

(* Inert: never enabled; used to observe the adversary hook in
   isolation. *)
module Inert = struct
  type state = int

  let equal_state = Int.equal
  let pp_state = Format.pp_print_int
  let size_bits _ _ = 4
  let initial _ _ = 0
  let random_state rng _ _ = Random.State.int rng 16
  let step _ = None
  let is_legal _ _ = true
  let potential _ _ = None
  let classify = None
end

let watch (type s) (module P : Protocol.S with type state = s) g sched ~max_rounds
    ~stall_window ~watch_phi =
  let module E = Engine.Make (P) in
  let wd = Watchdog.create ~stall_window () in
  let on_round round states =
    Watchdog.observe_round wd ~round ~hash:(Watchdog.config_hash states)
      ~phi:(if watch_phi then P.potential g states else None)
  in
  let r =
    E.run ~max_rounds ~max_steps:100_000 ~on_round
      ~stop_when:(fun () -> Watchdog.tripped wd <> None)
      g sched (seed 1) ~init:(E.initial g)
  in
  (r.E.silent, r.E.rounds, Watchdog.verdict wd ~silent:r.E.silent)

let test_watchdog_livelock () =
  let g = Generators.path (seed 2) ~n:6 in
  let silent, rounds, verdict =
    watch (module Pingpong) g Scheduler.Synchronous ~max_rounds:5_000 ~stall_window:1_000
      ~watch_phi:false
  in
  Alcotest.(check bool) "not silent" false silent;
  (match verdict with
  | Watchdog.Livelock { period; _ } -> Alcotest.(check int) "period 2" 2 period
  | v -> Alcotest.failf "expected livelock, got %s" (Watchdog.verdict_name v));
  Alcotest.(check bool) "cut short, not exhausted" true (rounds < 5_000)

let test_watchdog_stalled () =
  let g = Generators.path (seed 2) ~n:6 in
  let silent, rounds, verdict =
    watch (module Counter) g Scheduler.Synchronous ~max_rounds:5_000 ~stall_window:16
      ~watch_phi:true
  in
  Alcotest.(check bool) "not silent" false silent;
  (match verdict with
  | Watchdog.Stalled { window; _ } -> Alcotest.(check int) "window" 16 window
  | v -> Alcotest.failf "expected stalled, got %s" (Watchdog.verdict_name v));
  Alcotest.(check bool) "cut short, not exhausted" true (rounds < 5_000)

let test_watchdog_exhausted_without_signal () =
  (* Same counter run with the stall detector effectively disabled and no
     phi feed: nothing trips, the budget exhausts, and the verdict says
     so. *)
  let g = Generators.path (seed 2) ~n:6 in
  let silent, rounds, verdict =
    watch (module Counter) g Scheduler.Synchronous ~max_rounds:50 ~stall_window:1_000
      ~watch_phi:false
  in
  Alcotest.(check bool) "not silent" false silent;
  Alcotest.(check int) "ran to the budget" 50 rounds;
  match verdict with
  | Watchdog.Exhausted _ -> ()
  | v -> Alcotest.failf "expected exhausted, got %s" (Watchdog.verdict_name v)

let test_watchdog_reset () =
  let wd = Watchdog.create ~cycle_repeats:3 () in
  Watchdog.observe_round wd ~round:0 ~hash:7 ~phi:None;
  Watchdog.observe_round wd ~round:1 ~hash:7 ~phi:None;
  Alcotest.(check bool) "not yet" true (Watchdog.tripped wd = None);
  Watchdog.observe_round wd ~round:2 ~hash:7 ~phi:None;
  Alcotest.(check bool) "tripped on third sight" true (Watchdog.tripped wd <> None);
  Watchdog.reset wd;
  Alcotest.(check bool) "reset clears the verdict" true (Watchdog.tripped wd = None);
  Watchdog.observe_round wd ~round:3 ~hash:7 ~phi:None;
  Alcotest.(check bool) "history forgotten too" true (Watchdog.tripped wd = None)

let test_watchdog_collision_not_livelock () =
  (* Distinct configurations that share a hash: without the [snap]
     verifier the recurring hash would be scored as a livelock; with it
     occurrences are counted per serialized configuration, so a chain
     of colliding-but-different configurations never trips. *)
  let wd = Watchdog.create ~cycle_repeats:3 () in
  let configs = [ [| 1 |]; [| 2 |]; [| 3 |]; [| 4 |]; [| 5 |]; [| 6 |] ] in
  List.iteri
    (fun i c ->
      Watchdog.observe_round wd ~round:i ~hash:7 ~phi:None
        ~snap:(fun () -> Marshal.to_string c []))
    configs;
  Alcotest.(check bool) "distinct configs under one hash never trip" true
    (Watchdog.tripped wd = None)

let test_watchdog_collision_true_cycle_still_trips () =
  (* A genuine recurrence with [snap] attached must trip at exactly the
     same occurrence count as the hash-only path (cycle_repeats = 3). *)
  let wd = Watchdog.create ~cycle_repeats:3 () in
  let c = [| 9; 9 |] in
  let snap () = Marshal.to_string c [] in
  Watchdog.observe_round wd ~round:0 ~hash:7 ~phi:None ~snap;
  Watchdog.observe_round wd ~round:1 ~hash:7 ~phi:None ~snap;
  Alcotest.(check bool) "second sight does not trip" true (Watchdog.tripped wd = None);
  Watchdog.observe_round wd ~round:2 ~hash:7 ~phi:None ~snap;
  match Watchdog.tripped wd with
  | Some (Watchdog.Livelock { period; _ }) ->
      Alcotest.(check int) "period from the last gap" 1 period
  | v ->
      Alcotest.failf "expected livelock, got %s"
        (match v with None -> "no verdict" | Some v -> Watchdog.verdict_name v)

let test_watchdog_collision_alternating_cycle () =
  (* Two configurations alternating under one hash is a genuine
     period-2 livelock (both recur); the verifier must still catch it
     and report the period between same-configuration sightings. *)
  let wd = Watchdog.create ~cycle_repeats:3 () in
  let a = [| 1; 2 |] and b = [| 3; 4 |] in
  List.iteri
    (fun round c ->
      Watchdog.observe_round wd ~round ~hash:7 ~phi:None
        ~snap:(fun () -> Marshal.to_string c []))
    [ a; b; a; b; a; b ];
  match Watchdog.tripped wd with
  | Some (Watchdog.Livelock { period; _ }) ->
      Alcotest.(check int) "alternation caught with period 2" 2 period
  | v ->
      Alcotest.failf "expected livelock, got %s"
        (match v with None -> "no verdict" | Some v -> Watchdog.verdict_name v)

(* ------------------------------------------------------------------ *)
(* Engine adversary hook *)

let test_adversary_writes_are_not_steps () =
  let module E = Engine.Make (Inert) in
  let g = Generators.path (seed 3) ~n:5 in
  let injected = ref [] in
  let adversary ~round states =
    if round = 0 then begin
      injected := [ (2, states.(2) + 9) ];
      !injected
    end
    else []
  in
  let r = E.run ~adversary g Scheduler.Synchronous (seed 4) ~init:(E.initial g) in
  Alcotest.(check int) "no protocol steps" 0 r.E.steps;
  Alcotest.(check bool) "still silent (protocol inert)" true r.E.silent;
  Alcotest.(check int) "fault landed" 9 r.E.states.(2);
  Alcotest.(check int) "max_bits saw the fault" 4 r.E.max_bits

let test_adversary_periodic_wakes_protocol () =
  (* BFS builder, stabilized start; one injection at each of the first
     two round boundaries. The engine must pick up the newly enabled
     nodes and re-stabilize. *)
  let module P = Bfs_builder.P in
  let module E = Engine.Make (P) in
  let g = Generators.random_connected (seed 5) ~n:12 ~m:16 in
  let base = E.run g (Central Scheduler.Random_daemon) (seed 6) ~init:(E.adversarial (seed 6) g) in
  Alcotest.(check bool) "base stabilized" true (base.E.silent && base.E.legal);
  let count = ref 0 in
  let adversary ~round _states =
    if !count < 2 then begin
      incr count;
      [ (1, P.random_state (seed (100 + round)) g 1) ]
    end
    else []
  in
  let r =
    E.run ~adversary g (Central Scheduler.Random_daemon) (seed 7) ~init:base.E.states
  in
  Alcotest.(check int) "both injections fired" 2 !count;
  Alcotest.(check bool) "re-stabilized" true (r.E.silent && r.E.legal)

(* ------------------------------------------------------------------ *)
(* Greedy daemons: the two executors stay trajectory-identical *)

let equiv (type s) (module P : Protocol.S with type state = s) g sched ~sd =
  let module En = Engine.Make (P) in
  let go run =
    run ~max_steps:20_000 ~max_rounds:2_000 g sched (Random.State.make [| sd; 31 |])
      ~init:(En.adversarial (Random.State.make [| sd; 7 |]) g)
  in
  let a = go (fun ~max_steps ~max_rounds g sched rng ~init ->
      En.run ~max_steps ~max_rounds g sched rng ~init)
  in
  let b = go (fun ~max_steps ~max_rounds g sched rng ~init ->
      En.run_reference ~max_steps ~max_rounds g sched rng ~init)
  in
  Array.for_all2 P.equal_state a.En.states b.En.states
  && a.En.steps = b.En.steps && a.En.rounds = b.En.rounds && a.En.silent = b.En.silent

let prop_greedy_equiv =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:10 ~name:"greedy daemons: run = run_reference"
       QCheck2.Gen.(
         let* n = int_range 2 12 in
         let* extra = int_range 0 n in
         let* sd = int_bound 1_000_000 in
         return (sd, Generators.random_connected (Random.State.make [| sd |]) ~n ~m:(n - 1 + extra)))
       (fun (sd, g) ->
         List.for_all
           (fun sched ->
             equiv (module Bfs_builder.P) g sched ~sd
             && equiv (module Spt_builder.P) g sched ~sd)
           [
             Scheduler.Central Scheduler.Greedy_max_phi;
             Scheduler.Central Scheduler.Greedy_min_phi;
           ]))

let test_greedy_max_drags () =
  (* The adversarial greedy daemon must not be faster than steepest
     descent on the same instance (it maximizes the remaining
     potential at every pick). *)
  let module E = Engine.Make (Spt_builder.P) in
  let g = Generators.random_connected (seed 8) ~n:14 ~m:24 in
  let run sched sd =
    let r = E.run g sched (seed sd) ~init:(E.adversarial (seed sd) g) in
    Alcotest.(check bool) "stabilizes" true (r.E.silent && r.E.legal);
    r.E.steps
  in
  let slow = run (Central Scheduler.Greedy_max_phi) 11 in
  let fast = run (Central Scheduler.Greedy_min_phi) 11 in
  Alcotest.(check bool)
    (Printf.sprintf "greedy-max (%d steps) >= greedy-min (%d steps)" slow fast)
    true (slow >= fast)

(* ------------------------------------------------------------------ *)
(* Full chaos episodes *)

let test_episode_silence_plan () =
  let module C = Chaos.Make (Bfs_builder.P) (Engine.Make (Bfs_builder.P)) in
  let g = Generators.random_connected (seed 12) ~n:16 ~m:24 in
  let plan = Fault.Plan.make (Fault.Plan.Random_nodes 3) in
  let e =
    C.run_episode ~watch_phi:true g (Central Scheduler.Random_daemon) (seed 13) plan
  in
  Alcotest.(check bool) "recovered" true e.C.recovered;
  Alcotest.(check string) "verdict" "converged" (Watchdog.verdict_name e.C.verdict);
  match e.C.injections with
  | [ i ] ->
      Alcotest.(check int) "injected at fault-phase round 0" 0 i.Chaos.round;
      Alcotest.(check int) "three nodes" 3 (List.length i.Chaos.nodes);
      Alcotest.(check bool) "gap recorded" true (i.Chaos.gap = Some e.C.rounds);
      Alcotest.(check bool) "radius bounded by diameter" true
        (match i.Chaos.radius with
        | None -> i.Chaos.touched = 0
        | Some r -> r >= 0 && r <= Traversal.diameter g)
  | l -> Alcotest.failf "expected 1 injection, got %d" (List.length l)

let test_episode_periodic_plan () =
  let module C = Chaos.Make (Spt_builder.P) (Engine.Make (Spt_builder.P)) in
  let g = Generators.random_connected (seed 14) ~n:16 ~m:24 in
  let plan =
    Fault.Plan.make (Fault.Plan.Random_nodes 2) ~timing:(Fault.Plan.Periodic 4)
  in
  let e =
    C.run_episode ~max_injections:3 ~watch_phi:true g (Central Scheduler.Random_daemon)
      (seed 15) plan
  in
  Alcotest.(check bool) "recovered" true e.C.recovered;
  Alcotest.(check int) "injection budget spent" 3 (List.length e.C.injections);
  List.iter
    (fun i -> Alcotest.(check bool) "nodes non-empty" true (i.Chaos.nodes <> []))
    e.C.injections;
  (* the last injection always carries a gap when the episode recovered *)
  match List.rev e.C.injections with
  | last :: _ -> Alcotest.(check bool) "final gap present" true (last.Chaos.gap <> None)
  | [] -> assert false

let () =
  (* Deterministic property tests: fix the qcheck master seed. *)
  QCheck_base_runner.set_seed 20260704;
  Alcotest.run "repro_chaos"
    [
      ( "watchdog",
        [
          Alcotest.test_case "livelock verdict on a ping-pong run" `Quick
            test_watchdog_livelock;
          Alcotest.test_case "stalled verdict on a constant-phi run" `Quick
            test_watchdog_stalled;
          Alcotest.test_case "exhausted only without a signal" `Quick
            test_watchdog_exhausted_without_signal;
          Alcotest.test_case "reset forgets history" `Quick test_watchdog_reset;
          Alcotest.test_case "hash collision is not a livelock" `Quick
            test_watchdog_collision_not_livelock;
          Alcotest.test_case "true cycle still trips with the verifier" `Quick
            test_watchdog_collision_true_cycle_still_trips;
          Alcotest.test_case "alternating configurations still livelock" `Quick
            test_watchdog_collision_alternating_cycle;
        ] );
      ( "adversary hook",
        [
          Alcotest.test_case "fault writes are not steps" `Quick
            test_adversary_writes_are_not_steps;
          Alcotest.test_case "mid-run injection re-stabilizes" `Quick
            test_adversary_periodic_wakes_protocol;
        ] );
      ( "greedy daemons",
        [
          prop_greedy_equiv;
          Alcotest.test_case "greedy-max is no faster than greedy-min" `Quick
            test_greedy_max_drags;
        ] );
      ( "episodes",
        [
          Alcotest.test_case "silence plan: gap/radius/touched recorded" `Quick
            test_episode_silence_plan;
          Alcotest.test_case "periodic plan: budget spent mid-run" `Quick
            test_episode_periodic_plan;
        ] );
    ]
