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

(* The bfs and spt codecs pack two fields into one lane and reject a
   register outside the 31-bit range (st_layer.mli, spt_builder.mli).
   Every register a run can reach must fit: random draws, the
   registers of a boxed run that suffers bit flips at its first rounds
   (sampled after every seventh write), and a bit flip of each of
   those. *)
let range_contract (type s) (module P : Protocol.PACKED with type state = s) (sd, g) =
  let module En = Engine.Make (P) in
  let n = Graph.n g in
  let rng = Random.State.make [| sd; 17 |] and frng = Random.State.make [| sd; 19 |] in
  let fits what s =
    let s' = P.unpack ~n (P.pack ~n s) in
    if not (P.equal_state s s') then
      QCheck2.Test.fail_reportf "%s register %a came back as %a" what P.pp_state s P.pp_state
        s'
  in
  let sample what s =
    fits what s;
    fits ("bit-flipped " ^ what) (Fault.bitflip frng s)
  in
  let init = Array.init n (P.random_state rng g) in
  Array.iter (sample "random") init;
  let writes = ref 0 in
  let on_step _ sts =
    incr writes;
    if !writes mod 7 = 0 then Array.iter (sample "run") sts
  in
  let adversary ~round sts =
    if round < 3 then List.init n (fun v -> (v, Fault.bitflip frng sts.(v))) else []
  in
  ignore
    (En.run ~max_steps:5_000 ~on_step ~adversary g
       (Scheduler.Central Scheduler.Random_daemon) rng ~init);
  true

let test_pack_rejects_out_of_range () =
  let big = 1 lsl 40 in
  let rejects what f =
    match f () with
    | _ -> Alcotest.failf "%s: pack accepted a field of 2^40" what
    | exception Invalid_argument _ -> ()
  in
  let st = { St_layer.parent = 0; root = big; dist = 1 } in
  rejects "bfs root" (fun () -> Bfs_builder.Packed.pack ~n:8 st);
  rejects "bfs dist" (fun () -> Bfs_builder.Packed.pack ~n:8 { st with root = 0; dist = big });
  let sp = { Spt_builder.parent = 0; root = big; wdist = 3; hops = 1 } in
  rejects "spt root" (fun () -> Spt_builder.Packed.pack ~n:8 sp);
  rejects "spt hops" (fun () -> Spt_builder.Packed.pack ~n:8 { sp with root = 0; hops = big });
  (* [wdist] keeps a whole lane. *)
  let wide = { sp with root = 0; wdist = big } in
  Alcotest.(check bool) "spt wdist of 2^40 round-trips" true
    (Spt_builder.P.equal_state wide
       (Spt_builder.Packed.unpack ~n:8 (Spt_builder.Packed.pack ~n:8 wide)))

let range_props =
  [
    prop "bfs: reachable registers fit" (gen_graph 2 24)
      (range_contract (module Bfs_builder.Packed));
    prop "spt: reachable registers fit" (gen_graph 2 24)
      (range_contract (module Spt_builder.Packed));
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
    f ~max_steps:20_000 ~max_rounds:2_000 g sched
      (Random.State.make [| sd; 31 |])
      ~init
  in
  let a = limits (fun ~max_steps ~max_rounds g sched rng ~init ->
      Ep.run ~max_steps ~max_rounds g sched rng ~init)
  in
  let b = limits (fun ~max_steps ~max_rounds g sched rng ~init ->
      En.run_reference ~max_steps ~max_rounds g sched rng ~init)
  in
  let states_eq =
    Array.length a.Ep.states = Array.length b.En.states
    && Array.for_all2 B.equal_state a.Ep.states b.En.states
  in
  let ok =
    states_eq && a.Ep.steps = b.En.steps && a.Ep.rounds = b.En.rounds
    && a.Ep.silent = b.En.silent && a.Ep.legal = b.En.legal
    && a.Ep.max_bits = b.En.max_bits
  in
  if not ok then
    QCheck2.Test.fail_reportf
      "packed/reference divergence under %a: steps %d/%d rounds %d/%d silent \
       %b/%b legal %b/%b max_bits %d/%d states_eq %b"
      Scheduler.pp sched a.Ep.steps b.En.steps a.Ep.rounds b.En.rounds a.Ep.silent
      b.En.silent a.Ep.legal b.En.legal a.Ep.max_bits b.En.max_bits
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
      let a = Ep.run g sched (seed 43) ~init in
      let b = En.run g sched (seed 43) ~init in
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

(* The same for a synchronous round, which with no hook attached is the
   store's two sweeps and no per-node call back into the loop: nothing
   can observe the run from inside, so whole [run_bank] calls are
   measured. A run allocates a constant amount for its store, bitsets,
   journal and closures. From one n = 2 000 start, a one-round run and
   the full run (8x the steps, 21 rounds) must both stay under a bound
   that one word per step would break, and the full run may allocate
   only a few words more than the one-round run. *)
let test_sync_allocation_free () =
  let module Ep = Engine_packed.Make (Spt_builder.Packed) in
  let n = 2_000 in
  let g = Generators.random_connected (seed 64) ~n ~m:(2 * n) in
  let init = Ep.pack_bank ~n (Ep.adversarial (seed 65) g) in
  let run max_rounds =
    let bank = Array.map Array.copy init in
    let before = Gc.minor_words () in
    let s = Ep.run_bank ~max_rounds g Scheduler.Synchronous (seed 66) ~bank in
    (s, Gc.minor_words () -. before)
  in
  let short, short_words = run 1 and full, full_words = run 200_000 in
  Alcotest.(check bool) "full run went silent" true full.Ep.silent;
  Alcotest.(check bool) "the full run takes 8x the steps" true
    (full.Ep.steps >= 8 * short.Ep.steps && full.Ep.rounds > 20);
  List.iter
    (fun (what, words) ->
      if words > 4096.0 then
        Alcotest.failf "%s synchronous run_bank allocated %.0f minor words" what words)
    [ ("a one-round", short_words); ("the full", full_words) ];
  if full_words -. short_words > 32.0 then
    Alcotest.failf "%d more rounds allocated %.0f more minor words" (full.Ep.rounds - 1)
      (full_words -. short_words)

(* The packed engine is the boxed engine with every hook attached: the
   same executor loop over the other register store. From adversarial
   starts on the extended daemon roster, with an event ring (Φ at
   rounds) whose clock stands at round 7 after 11 moves and
   which holds two pending fault sources, an adversary corrupting two
   nodes at round 2, an [on_step] log, an [on_round] log
   and a profile all attached at once — run to silence and cut short by
   [stop_when] after 25 writes — both engines must emit the same event
   JSON lines, hook logs, result fields, series JSON and profile
   counters ([refreshes] counts boxed view refreshes, so it
   is the one counter left out). *)
let hooked_run (type s) (module B : Protocol.PACKED with type state = s)
    (module E : Engine.S with type state = s) g sched ~sd ~init ~faults ~cut =
  let events = Events.ring ~record_phi:true () in
  let profile = Profile.create () in
  let log = Buffer.create 1024 and steps = ref 0 in
  let on_step v sts =
    incr steps;
    Printf.bprintf log "step %d node %d hash %d\n" !steps v (Hashtbl.hash sts)
  in
  let on_round r sts = Printf.bprintf log "round %d hash %d\n" r (Hashtbl.hash sts) in
  let adversary ~round _ = if round = 2 then faults else [] in
  (* The run continues the sink's timeline and takes its sources as
     the causes of the nodes it starts enabled. *)
  for step = 1 to 11 do
    ignore
      (Events.emit_move events ~node:0 ~step ~round:7 ~bits_before:0 ~bits_after:0
         ~causes:[] ())
  done;
  Events.emit_round events ~round:7 ~enabled:0 ~bits:(0, 0) ~phi:None;
  Events.emit_sources (Some events) [ 0; Graph.n g - 1 ] ~emit:(fun sink v ->
      Events.emit_fault sink ~node:v);
  let stop_when () = cut && !steps >= 25 in
  (* The stores fingerprint differently; the verdict, its rounds and the
     Φ floor must not depend on it. *)
  let watchdog = Watchdog.create ~watch_phi:true ~observe_only:true () in
  (* A clock at round 5, set by one hand observation. *)
  Watchdog.observe_round watchdog ~round:5 ~hash:0 ~snap:(fun () -> "") ~phi:None;
  Watchdog.reset watchdog;
  let r =
    E.run ~max_steps:20_000 ~max_rounds:2_000 ~on_round ~on_step
      ~adversary ~stop_when ~watchdog ~events ~profile g sched
      (Random.State.make [| sd; 31 |])
      ~init
  in
  let lines = List.map (fun e -> Metrics.Json.to_string (Events.event_json e)) in
  let counters (p : Profile.t) =
    (p.moves, p.guard_evals, p.touches, p.flushes, p.churn, Profile.rule_counts p)
  in
  ( (r.E.steps, r.E.rounds, r.E.silent, r.E.legal, r.E.max_bits),
    (Watchdog.verdict watchdog ~silent:r.E.silent, Watchdog.observed watchdog),
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

(* ------------------------------------------------------------------ *)
(* The packed store on its own: the watchdog's fingerprint is kept per
   write, and a journaled bank is restored on rollback. From an
   adversarial bank, commit enabled nodes in random order and overwrite
   random nodes with fresh registers (a fault), then run synchronous
   rounds as the loop does (a commit sweep over the enabled set, a
   probe sweep over the dirty set), with and without a per-node
   callback; after every write and every round the incremental
   fingerprint must equal the one a fresh store computes from scratch,
   and rolling back must give the starting bank. *)

let fingerprint_tracks (type s) (module B : Protocol.PACKED with type state = s) (sd, g) =
  let module Ep = Engine_packed.Make (B) in
  let module St = Ep.Store in
  let n = Graph.n g in
  let rng = Random.State.make [| sd; 41 |] in
  let bank = Ep.pack_bank ~n (Ep.adversarial rng g) in
  let start = Array.map Array.copy bank in
  let st = St.create ~watched:true g (bank, true) in
  let from_scratch () = St.fingerprint (St.create ~watched:true g (bank, false)) in
  let check what =
    if St.fingerprint st <> from_scratch () then
      QCheck2.Test.fail_reportf "fingerprint drifted after %s (n=%d)" what n
  in
  let enabled = Bitset.create n and dirty = Bitset.create n in
  check "create";
  for _ = 1 to 4 * n do
    let v = Random.State.int rng n in
    if Random.State.int rng 4 = 0 then begin
      ignore (St.overwrite st v (B.random_state rng g v) ~dirty);
      check "an overwrite"
    end
    else begin
      Bitset.add dirty v;
      St.probe_sweep st dirty ~enabled None;
      if Bitset.mem enabled v then begin
        ignore (St.commit st v ~dirty);
        check "a commit"
      end
    end
  done;
  for v = 0 to n - 1 do
    Bitset.add dirty v
  done;
  St.probe_sweep st dirty ~enabled None;
  for round = 1 to 6 do
    let visit = if round mod 2 = 0 then Some (fun _ _ -> true) else None in
    ignore (St.commit_sweep st enabled ~dirty visit);
    check (Printf.sprintf "sweep round %d" round);
    St.probe_sweep st dirty ~enabled None
  done;
  St.rollback st;
  if bank <> start then QCheck2.Test.fail_reportf "rollback did not restore the bank";
  true

(* [run_bank] leaves the caller's bank as it found it when the run
   raises (here an [on_step] hook, after some writes). *)
let test_run_bank_rollback () =
  let module Ep = Engine_packed.Make (Spt_builder.Packed) in
  let g = Generators.random_connected (seed 71) ~n:60 ~m:120 in
  let bank = Ep.pack_bank ~n:60 (Ep.adversarial (seed 72) g) in
  let start = Array.map Array.copy bank in
  let writes = ref 0 in
  let on_step _ _ =
    incr writes;
    if !writes = 40 then failwith "hook"
  in
  (match Ep.run_bank ~on_step g Scheduler.Synchronous (seed 73) ~bank with
  | _ -> Alcotest.fail "the hook did not raise"
  | exception Failure _ -> ());
  Alcotest.(check bool) "bank restored" true (bank = start)

(* The same when the guard itself raises, in the middle of a probe
   sweep of a synchronous run with no hook attached: a commit sweep has
   written the bank by then, and the journal restores it. *)
module Raising_spt = struct
  include Spt_builder.Packed

  let calls = ref 0
  let raise_at = ref 0

  let step_packed pv =
    incr calls;
    if !calls = !raise_at then failwith "guard";
    step_packed pv
end

let test_run_bank_rollback_mid_sweep () =
  let module Ep = Engine_packed.Make (Raising_spt) in
  let n = 60 in
  let g = Generators.random_connected (seed 74) ~n ~m:(2 * n) in
  let bank = Ep.pack_bank ~n (Ep.adversarial (seed 75) g) in
  let start = Array.map Array.copy bank in
  let run bank ~raise_at =
    Raising_spt.calls := 0;
    Raising_spt.raise_at := raise_at;
    Ep.run_bank g Scheduler.Synchronous (seed 76) ~bank
  in
  (* Unraising, the run makes more than 2n guard calls: the n-th ends
     the initial scan, so the 2n-th falls in a later probe sweep. *)
  ignore (run (Array.map Array.copy bank) ~raise_at:(-1));
  Alcotest.(check bool) "the run outlasts 2n guard calls" true (!Raising_spt.calls > 2 * n);
  (match run bank ~raise_at:(2 * n) with
  | _ -> Alcotest.fail "the guard did not raise"
  | exception Failure _ -> ());
  Alcotest.(check bool) "bank restored" true (bank = start)

let store_props =
  [
    prop ~count:30 "bfs: incremental fingerprint = from scratch" (gen_graph 2 30)
      (fingerprint_tracks (module Bfs_builder.Packed));
    prop ~count:30 "spt: incremental fingerprint = from scratch" (gen_graph 2 30)
      (fingerprint_tracks (module Spt_builder.Packed));
    prop ~count:30 "adhoc-bfs: incremental fingerprint = from scratch" (gen_graph 2 30)
      (fingerprint_tracks (module Adhoc_bfs.Packed));
  ]

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
  Alcotest.run "packed"
    [
      ("codec", codec_props);
      ( "codec-range",
        range_props
        @ [
            Alcotest.test_case "pack rejects a field of 2^40" `Quick
              test_pack_rejects_out_of_range;
          ] );
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
          Alcotest.test_case "synchronous rounds are allocation-free" `Quick
            test_sync_allocation_free;
        ] );
      ("engine-hooks", hook_props);
      ( "store",
        store_props
        @ [
            Alcotest.test_case "run_bank rolls the bank back on raise" `Quick
              test_run_bank_rollback;
            Alcotest.test_case "run_bank rolls back a guard raising mid-sweep" `Quick
              test_run_bank_rollback_mid_sweep;
          ] );
    ]
