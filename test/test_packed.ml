(* The struct-of-arrays stack (ISSUE 7): register codecs must
   round-trip ([unpack (pack s) = s]) for every builder, the packed
   executor (Engine_packed) must be trajectory-identical to the boxed
   reference (Engine.run_reference) across the daemon roster, and the
   steady-state packed loop must not allocate (Gc.minor_words
   differential). See SCALING.md for the layout these tests pin. *)

open Repro_graph
open Repro_runtime
open Repro_core
open Repro_baselines

let seed i = Random.State.make [| 0xCAFE; i |]

let prop ?(count = 20) name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

let gen_graph lo hi =
  QCheck2.Gen.(
    let* n = int_range lo hi in
    let* extra = int_range 0 n in
    let* sd = int_bound 1_000_000 in
    return (sd, Generators.random_connected (Random.State.make [| sd |]) ~n ~m:(n - 1 + extra)))

(* ------------------------------------------------------------------ *)
(* Codec round-trips, over adversarial register draws (random_state
   exercises every option/array variant of the variable-length MST and
   MDST registers). *)

let roundtrip (type s) (module C : Protocol.CODEC with type state = s)
    ~equal ~pp ~(random_state : Random.State.t -> Graph.t -> int -> s) (sd, g) =
  let rng = Random.State.make [| sd; 11 |] in
  let n = Graph.n g in
  for v = 0 to n - 1 do
    let s = random_state rng g v in
    let s' = C.unpack ~n (C.pack ~n s) in
    if not (equal s s') then
      QCheck2.Test.fail_reportf "codec round-trip lost node %d: %a <> %a" v pp s pp s'
  done;
  true

let fixed_width (type s) (module P : Protocol.PACKED with type state = s) (sd, g) =
  let rng = Random.State.make [| sd; 13 |] in
  let n = Graph.n g in
  for v = 0 to n - 1 do
    let s = P.random_state rng g v in
    let w = Array.length (P.pack ~n s) in
    if w <> P.words then
      QCheck2.Test.fail_reportf "pack of node %d has %d words, declared %d" v w P.words
  done;
  true

let codec_props =
  [
    prop "bfs codec: unpack (pack s) = s" (gen_graph 2 24)
      (roundtrip
         (module Bfs_builder.Packed)
         ~equal:Bfs_builder.P.equal_state ~pp:Bfs_builder.P.pp_state
         ~random_state:Bfs_builder.P.random_state);
    prop "spt codec: unpack (pack s) = s" (gen_graph 2 24)
      (roundtrip
         (module Spt_builder.Packed)
         ~equal:Spt_builder.P.equal_state ~pp:Spt_builder.P.pp_state
         ~random_state:Spt_builder.P.random_state);
    prop "adhoc-bfs codec: unpack (pack s) = s" (gen_graph 2 24)
      (roundtrip
         (module Adhoc_bfs.Packed)
         ~equal:Adhoc_bfs.P.equal_state ~pp:Adhoc_bfs.P.pp_state
         ~random_state:Adhoc_bfs.P.random_state);
    prop "mst codec: unpack (pack s) = s" (gen_graph 2 16)
      (roundtrip
         (module Mst_builder.Codec)
         ~equal:Mst_builder.P.equal_state ~pp:Mst_builder.P.pp_state
         ~random_state:Mst_builder.P.random_state);
    prop "mdst codec: unpack (pack s) = s" (gen_graph 2 16)
      (roundtrip
         (module Mdst_builder.Codec)
         ~equal:Mdst_builder.P.equal_state ~pp:Mdst_builder.P.pp_state
         ~random_state:Mdst_builder.P.random_state);
    prop ~count:10 "bfs pack width = words" (gen_graph 2 16)
      (fixed_width (module Bfs_builder.Packed));
    prop ~count:10 "spt pack width = words" (gen_graph 2 16)
      (fixed_width (module Spt_builder.Packed));
    prop ~count:10 "adhoc-bfs pack width = words" (gen_graph 2 16)
      (fixed_width (module Adhoc_bfs.Packed));
  ]

(* The adversarial draws above keep NCA sequences short; a stabilized
   run populates every label layer with real data (deep sequences,
   aggregates mid-flight are gone but label layers are full), so also
   round-trip the states of a converged MST/MDST configuration. *)
let test_codec_on_converged (type s) (module C : Protocol.CODEC with type state = s)
    (module P : Protocol.S with type state = s) name () =
  let module En = Engine.Make (P) in
  let g = Generators.random_connected (seed 21) ~n:10 ~m:16 in
  let n = Graph.n g in
  let r = En.run g Scheduler.Synchronous (seed 22) ~init:(En.initial g) in
  Alcotest.(check bool) (name ^ " stabilized") true r.En.silent;
  Array.iteri
    (fun v s ->
      Alcotest.(check bool)
        (Printf.sprintf "%s converged state %d round-trips" name v)
        true
        (P.equal_state s (C.unpack ~n (C.pack ~n s))))
    r.En.states

(* ------------------------------------------------------------------ *)
(* Trajectory identity: Engine_packed.run vs Engine.run_reference on
   shared seeds. PACKED includes S, so the same module drives both. *)

let equiv_packed (type s) (module B : Protocol.PACKED with type state = s) g sched
    ~init ~sd =
  let module En = Engine.Make (B) in
  let module Ep = Engine_packed.Make (B) in
  let limits f =
    f ~max_steps:20_000 ~max_rounds:2_000 ~track_legal:true g sched
      (Random.State.make [| sd; 31 |])
      ~init
  in
  let a = limits (fun ~max_steps ~max_rounds ~track_legal g sched rng ~init ->
      Ep.run ~max_steps ~max_rounds ~track_legal g sched rng ~init)
  in
  let b = limits (fun ~max_steps ~max_rounds ~track_legal g sched rng ~init ->
      En.run_reference ~max_steps ~max_rounds ~track_legal g sched rng ~init)
  in
  let states_eq =
    Array.length a.Ep.states = Array.length b.En.states
    && Array.for_all2 B.equal_state a.Ep.states b.En.states
  in
  let ok =
    states_eq && a.Ep.steps = b.En.steps && a.Ep.rounds = b.En.rounds
    && a.Ep.silent = b.En.silent && a.Ep.legal = b.En.legal
    && a.Ep.max_bits = b.En.max_bits
    && a.Ep.first_legal_round = b.En.first_legal_round
  in
  if not ok then
    QCheck2.Test.fail_reportf
      "packed/reference divergence under %a: steps %d/%d rounds %d/%d silent \
       %b/%b legal %b/%b max_bits %d/%d first_legal %s/%s states_eq %b"
      Scheduler.pp sched a.Ep.steps b.En.steps a.Ep.rounds b.En.rounds a.Ep.silent
      b.En.silent a.Ep.legal b.En.legal a.Ep.max_bits b.En.max_bits
      (match a.Ep.first_legal_round with Some r -> string_of_int r | None -> "-")
      (match b.En.first_legal_round with Some r -> string_of_int r | None -> "-")
      states_eq;
  true

let equiv_roster (type s) (module B : Protocol.PACKED with type state = s) g ~sd
    ~roster =
  let module Ep = Engine_packed.Make (B) in
  let init = Ep.adversarial (Random.State.make [| sd; 7 |]) g in
  List.for_all (fun sched -> equiv_packed (module B) g sched ~init ~sd) roster

let named_roster = List.map snd Scheduler.all
let full_roster = List.map snd Scheduler.extended

let equiv_props =
  [
    (* bfs gets the extended roster: the greedy-Φ daemons exercise the
       packed engine's unpack-per-pick path. *)
    prop ~count:12 "bfs: packed run = run_reference (extended daemons)"
      (gen_graph 2 16)
      (fun (sd, g) -> equiv_roster (module Bfs_builder.Packed) g ~sd ~roster:full_roster);
    prop ~count:12 "spt: packed run = run_reference (all daemons)" (gen_graph 2 16)
      (fun (sd, g) -> equiv_roster (module Spt_builder.Packed) g ~sd ~roster:named_roster);
    prop ~count:12 "adhoc-bfs: packed run = run_reference (all daemons)"
      (gen_graph 2 16)
      (fun (sd, g) -> equiv_roster (module Adhoc_bfs.Packed) g ~sd ~roster:named_roster);
  ]

(* The packed engine must also agree with the boxed incremental engine
   (Engine.run) — same trajectory through a different cache design. *)
let test_packed_vs_incremental () =
  let module Ep = Engine_packed.Make (Bfs_builder.Packed) in
  let module En = Bfs_builder.Engine in
  let g = Generators.random_connected (seed 41) ~n:40 ~m:80 in
  let init = Ep.adversarial (seed 42) g in
  List.iter
    (fun sched ->
      let a = Ep.run ~track_legal:true g sched (seed 43) ~init in
      let b = En.run ~track_legal:true g sched (seed 43) ~init in
      Alcotest.(check int) "steps" b.En.steps a.Ep.steps;
      Alcotest.(check int) "rounds" b.En.rounds a.Ep.rounds;
      Alcotest.(check int) "max_bits" b.En.max_bits a.Ep.max_bits;
      Alcotest.(check bool) "states" true
        (Array.for_all2 Bfs_builder.P.equal_state a.Ep.states b.En.states))
    full_roster

(* The event sinks' per-round series must line up too (rounds, writes,
   register bits are computed from the flat bank without re-boxing). *)
let test_telemetry_identical () =
  let module Ep = Engine_packed.Make (Spt_builder.Packed) in
  let module En = Spt_builder.Engine in
  let g = Generators.random_connected (seed 51) ~n:20 ~m:40 in
  let init = Ep.adversarial (seed 52) g in
  let series run =
    let events = Events.series () in
    run events;
    List.map
      (fun (s : Events.sample) ->
        (s.round, s.enabled, s.writes, s.writes_total, s.max_bits, s.total_bits))
      (Events.samples events)
  in
  let a =
    series (fun events -> ignore (Ep.run ~events g Scheduler.Synchronous (seed 53) ~init))
  in
  let b =
    series (fun events -> ignore (En.run ~events g Scheduler.Synchronous (seed 53) ~init))
  in
  Alcotest.(check int) "same number of samples" (List.length b) (List.length a);
  List.iter2
    (fun (r, e, w, wt, mb, tb) (r', e', w', wt', mb', tb') ->
      Alcotest.(check (list int)) "sample" [ r'; e'; w'; wt'; mb'; tb' ]
        [ r; e; w; wt; mb; tb ])
    a b

(* ------------------------------------------------------------------ *)
(* Allocation-freedom: the steady-state packed loop (guard
   re-evaluation, daemon pick, move apply, round accounting — no
   event sink, no legality tracking, deterministic daemon) must not
   allocate. Measured from inside the run through the [stop_when] poll,
   which fires after every write: the minor-word counter between two
   polls hundreds of steps apart must not move. (Setup and the final
   re-boxed result allocate by design; they sit outside the window.
   The two [Gc.minor_words] reads themselves box one float each, hence
   the few-words tolerance.) *)
let test_allocation_free () =
  let module Ep = Engine_packed.Make (Bfs_builder.Packed) in
  let g = Generators.random_connected (seed 61) ~n:400 ~m:800 in
  let init = Ep.adversarial (seed 62) g in
  let sched = Scheduler.Central Scheduler.Round_robin in
  let polls = ref 0 in
  let at_a = ref 0.0 and at_b = ref 0.0 in
  let a = 100 and b = 600 in
  let stop_when () =
    incr polls;
    if !polls = a then at_a := Gc.minor_words ()
    else if !polls = b then at_b := Gc.minor_words ();
    false
  in
  let r = Ep.run ~stop_when g sched (seed 63) ~init in
  Alcotest.(check bool) "run long enough to cover the window" true (!polls > b);
  Alcotest.(check bool) "run went silent" true r.Ep.silent;
  let delta = !at_b -. !at_a in
  if delta > 16.0 then
    Alcotest.failf "%d packed steps allocated %.0f minor words" (b - a) delta

(* The packed engine is the boxed engine with every hook attached: the
   same executor loop over the other register store. From adversarial
   starts on the extended daemon roster, with an event ring (Φ at
   rounds and moves), an adversary corrupting two nodes at round 2,
   [init_causes] and both offsets, an [on_step] log, an [on_round] log
   and a profile all attached at once — run to silence and cut short by
   [stop_when] after 25 writes — both engines must emit the same event
   JSON lines, hook logs, result fields, series JSON and profile
   counters ([refreshes] counts boxed view refreshes, so it
   is the one counter left out). *)
let hooked_run (type s) (module B : Protocol.PACKED with type state = s)
    (module E : Engine.S with type state = s) g sched ~sd ~init ~faults ~cut =
  let events = Events.ring ~record_phi:true ~move_phi:true () in
  let profile = Profile.create () in
  let log = Buffer.create 1024 and steps = ref 0 in
  let on_step v sts =
    incr steps;
    Printf.bprintf log "step %d node %d hash %d\n" !steps v (Hashtbl.hash sts)
  in
  let on_round r sts = Printf.bprintf log "round %d hash %d\n" r (Hashtbl.hash sts) in
  let adversary ~round _ = if round = 2 then faults else [] in
  let init_causes v = [ v; 1000 + v ] in
  let stop_when () = cut && !steps >= 25 in
  let r =
    E.run ~max_steps:20_000 ~max_rounds:2_000 ~track_legal:true ~on_round ~on_step
      ~adversary ~stop_when ~events ~profile ~init_causes ~round_offset:7 ~step_offset:11 g
      sched
      (Random.State.make [| sd; 31 |])
      ~init
  in
  let lines = List.map (fun e -> Metrics.Json.to_string (Events.event_json e)) in
  let counters (p : Profile.t) =
    (p.moves, p.guard_evals, p.touches, p.flushes, p.churn, Profile.rule_counts p)
  in
  ( (r.E.steps, r.E.rounds, r.E.silent, r.E.legal, r.E.max_bits, r.E.first_legal_round),
    List.map (Format.asprintf "%a" B.pp_state) (Array.to_list r.E.states),
    lines (Events.events events),
    Buffer.contents log,
    Metrics.Json.to_string (Events.series_json events),
    counters profile )

let hooks_equal (type s) (module B : Protocol.PACKED with type state = s) (sd, g) =
  let module Ep = Engine_packed.Make (B) in
  let n = Graph.n g in
  let init = Ep.adversarial (Random.State.make [| sd; 7 |]) g in
  let frng = Random.State.make [| sd; 9 |] in
  let faults = List.map (fun v -> (v, B.random_state frng g v)) [ 0; n - 1 ] in
  List.for_all
    (fun (name, sched) ->
      List.for_all
        (fun cut ->
          let run e = hooked_run (module B) e g sched ~sd ~init ~faults ~cut in
          let boxed = run (module Engine.Make (B)) and packed = run (module Ep) in
          if boxed <> packed then
            QCheck2.Test.fail_reportf "packed and boxed runs differ under %s (n=%d, cut %b)"
              name n cut;
          true)
        [ false; true ])
    Scheduler.extended

let hook_props =
  [
    prop ~count:8 "bfs: packed run = boxed run, every hook attached" (gen_graph 2 14)
      (hooks_equal (module Bfs_builder.Packed));
    prop ~count:8 "spt: packed run = boxed run, every hook attached" (gen_graph 2 14)
      (hooks_equal (module Spt_builder.Packed));
    prop ~count:8 "adhoc-bfs: packed run = boxed run, every hook attached" (gen_graph 2 14)
      (hooks_equal (module Adhoc_bfs.Packed));
  ]

let () =
  QCheck_base_runner.set_seed 20260704;
  Alcotest.run "packed"
    [
      ("codec", codec_props);
      ( "codec-converged",
        [
          Alcotest.test_case "mst" `Quick
            (test_codec_on_converged (module Mst_builder.Codec) (module Mst_builder.P)
               "mst");
          Alcotest.test_case "mdst" `Quick
            (test_codec_on_converged (module Mdst_builder.Codec)
               (module Mdst_builder.P) "mdst");
        ] );
      ("engine-equiv", equiv_props);
      ( "engine-unit",
        [
          Alcotest.test_case "packed vs incremental (bfs, extended roster)" `Quick
            test_packed_vs_incremental;
          Alcotest.test_case "telemetry series identical (spt, sync)" `Quick
            test_telemetry_identical;
          Alcotest.test_case "steady-state loop is allocation-free" `Quick
            test_allocation_free;
        ] );
      ("engine-hooks", hook_props);
    ]
