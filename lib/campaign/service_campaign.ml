open Repro_graph
open Repro_runtime
open Repro_service
module Json = Metrics.Json

type cell = {
  algo : string;
  trace_name : string;
  sched_name : string;
  fallback_name : string;
  seed_index : int;
  n0 : int;
  m0 : int;
  tier : string;
  qps : int option;
  report : Service.report;
}

let fallback_for sched_name =
  if sched_name = "random" then ("distributed", Scheduler.Distributed 0.5)
  else ("random", Scheduler.Central Scheduler.Random_daemon)

let churn_matrix ~pool ~gen ~n ~seeds ~seed_base ~algos ~traces ~daemons ~max_rounds
    ~retry_budget ~max_retries ~queries_per_round ~stall_window ~cycle_repeats ?trace_dir
    () =
  Campaign.run_matrix ~pool ~gen ~n ~seeds ~seed_base ~algos ~axis:"trace"
    ~points:(List.map (fun t -> (Churn.name t, t)) traces)
    ~daemons
    ~sched_meta:(fun sched_name -> [ ("fallback", Json.Str (fst (fallback_for sched_name))) ])
    ?trace_dir
    (fun (k : Campaign.key) trace sched g rng events ->
      let fallback_name, fallback = fallback_for k.sched_name in
      let report =
        Builders.serve ~max_rounds ~retry_budget ~max_retries ~queries_per_round
          ~stall_window ~cycle_repeats ?events k.builder g ~sched ~fallback rng trace
      in
      {
        algo = Builders.name k.builder;
        trace_name = k.point;
        sched_name = k.sched_name;
        fallback_name;
        seed_index = k.seed_index;
        n0 = Graph.n g;
        m0 = Graph.m g;
        tier = "std";
        qps = None;
        report;
      })

(* ------------------------------------------------------------------ *)
(* The big serve-bench tier (serve --big, the @servebench alias):
   builder x size x churn trace on random-connected graphs under the
   synchronous daemon, one seed per cell like the big bench tier, then
   a timed batch of pair queries against the episode's final committed
   snapshot. Episodes run {e sequentially} — a query batch fans out
   over the pool, and [Pool.map] nested inside a pool worker would
   serialize it. *)

let big_ns = [ 1_000; 10_000; 100_000 ]
let big_algos = [ Builders.bfs; Builders.spt ]

let answer_checksum (a : Snapshot.answer) =
  a.Snapshot.a_parent + (3 * a.Snapshot.a_root) + (5 * a.Snapshot.a_degree)
  + (if a.Snapshot.a_ancestor then 7 else 0)
  + (11 * a.Snapshot.a_nca) + (13 * a.Snapshot.a_route)

(* Chunk [queries] across [query_jobs] seeded worker streams and time
   the whole batch. Per-worker results come back in worker order
   (Pool.map's determinism contract), so the folded checksum is stable
   for a fixed [query_jobs] at any pool size — only the wall-derived
   qps varies. *)
let timed_batch pool ~queries ~query_jobs ~seed_base worker =
  let jobs = max 1 query_jobs in
  let per = queries / jobs and rem = queries mod jobs in
  let plan = List.init jobs (fun w -> (w, per + if w < rem then 1 else 0)) in
  let t0 = Unix.gettimeofday () in
  let sums =
    Pool.map pool
      (fun (w, k) -> worker (Random.State.make [| seed_base; 0x9E5; w |]) k)
      plan
  in
  let wall = Unix.gettimeofday () -. t0 in
  let qps = int_of_float (float_of_int queries /. Float.max 1e-9 wall) in
  (qps, List.fold_left ( + ) 0 sums)

let measure_qps pool snap ~queries ~query_jobs ~seed_base =
  let n = Snapshot.n snap in
  timed_batch pool ~queries ~query_jobs ~seed_base (fun rng k ->
      let acc = ref 0 in
      for _ = 1 to k do
        let v = Random.State.int rng n in
        let u = Random.State.int rng n in
        acc := !acc + answer_checksum (Snapshot.answer snap ~v ~u)
      done;
      !acc)

(* The pre-snapshot read path timed the same way — the O(n)-per-query
   parent-chase baseline the PERFORMANCE.md speedup table quotes. *)
let measure_chase_qps pool snap ~queries ~query_jobs ~seed_base =
  let n = Snapshot.n snap in
  let parents = Array.init n (Snapshot.parent snap) in
  timed_batch pool ~queries ~query_jobs ~seed_base (fun rng k ->
      let acc = ref 0 in
      for _ = 1 to k do
        let v = Random.State.int rng n in
        let parent, root, degree = Service.answer parents v in
        acc := !acc + parent + (3 * root) + (5 * degree)
      done;
      !acc)

type baseline = {
  b_algo : string;
  b_trace : string;
  b_n : int;
  b_snapshot_qps : int;
  b_chase_qps : int;
}

let run_bench ~pool ~ns ~algos ~traces ~seed_base ~queries ~query_jobs ~baseline_nmax
    ~max_rounds ~retry_budget ~max_retries ~queries_per_round ~stall_window ~cycle_repeats
    () =
  let sched_name = "synchronous" and sched = Scheduler.Synchronous in
  let fallback_name, fallback = fallback_for sched_name in
  let specs =
    List.concat_map
      (fun builder ->
        List.concat_map (fun n -> List.map (fun t -> (builder, n, t)) traces) ns)
      algos
  in
  let baselines = ref [] in
  let cells =
    List.map
      (fun (builder, n, trace) ->
        let algo = Builders.name builder and trace_name = Churn.name trace in
        let rng =
          Random.State.make
            [| seed_base; Hashtbl.hash (algo, trace_name, sched_name); n; 1 |]
        in
        let g = Generators.random_connected rng ~n ~m:(2 * n) in
        let snapshot = Snapshot.create () in
        let report =
          Builders.serve ~max_rounds ~retry_budget ~max_retries ~queries_per_round
            ~stall_window ~cycle_repeats ~snapshot builder g ~sched ~fallback rng trace
        in
        let qps, _checksum =
          measure_qps pool snapshot ~queries ~query_jobs ~seed_base
        in
        if n <= baseline_nmax then begin
          let chase, _ =
            measure_chase_qps pool snapshot ~queries ~query_jobs ~seed_base
          in
          baselines :=
            {
              b_algo = algo;
              b_trace = trace_name;
              b_n = n;
              b_snapshot_qps = qps;
              b_chase_qps = chase;
            }
            :: !baselines
        end;
        {
          algo;
          trace_name;
          sched_name;
          fallback_name;
          seed_index = 1;
          n0 = Graph.n g;
          m0 = Graph.m g;
          tier = "big";
          qps = Some qps;
          report;
        })
      specs
  in
  (cells, List.rev !baselines)

let recovered c = c.report.Service.recovered

let failed cells = List.length (List.filter (fun c -> not (recovered c)) cells)

(* The full cell key plus how the watchdog saw the episode die — what
   [repro_cli serve] prints for every failing cell before exiting 1. *)
let failure_line c =
  let r = c.report in
  let done_events =
    List.length (List.filter (fun (e : Service.event_outcome) -> e.Service.recovered)
        r.Service.events)
  in
  Printf.sprintf
    "algo=%s trace=%s sched=%s seed=%d tier=%s: verdict=%s (%d/%d events recovered)"
    c.algo c.trace_name c.sched_name c.seed_index c.tier
    (Watchdog.verdict_name r.Service.verdict)
    done_events
    (List.length r.Service.events)

let csv_header =
  "algo,trace,sched,fallback,seed,recovered,verdict,base_rounds,rounds,steps,\
   events,queries,stale,violations,retries,escalations,restarts,crashes"

let totals (r : Service.report) =
  List.fold_left
    (fun (q, st, vl, re, es, rs, cr) (e : Service.event_outcome) ->
      ( q + e.Service.queries,
        st + e.Service.stale,
        vl + e.Service.violations,
        re + e.Service.retries,
        es + e.Service.escalations,
        rs + e.Service.restarts,
        cr + e.Service.crashes ))
    (0, 0, 0, 0, 0, 0, 0) r.Service.events

let csv_row c =
  let r = c.report in
  let q, st, vl, re, es, rs, cr = totals r in
  Printf.sprintf "%s,%s,%s,%s,%d,%b,%s,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d" c.algo
    c.trace_name c.sched_name c.fallback_name c.seed_index r.Service.recovered
    (Watchdog.verdict_name r.Service.verdict)
    r.Service.base_rounds r.Service.rounds r.Service.steps
    (List.length r.Service.events)
    q st vl re es rs cr

let event_json (e : Service.event_outcome) =
  Json.Obj
    [
      ("op", Json.Str e.Service.op);
      ("round", Json.Int e.Service.apply_round);
      ("gap", match e.Service.gap with Some g -> Json.Int g | None -> Json.Null);
      ("steps", Json.Int e.Service.steps);
      ("queries", Json.Int e.Service.queries);
      ("stale", Json.Int e.Service.stale);
      ("violations", Json.Int e.Service.violations);
      ("retries", Json.Int e.Service.retries);
      ("escalations", Json.Int e.Service.escalations);
      ("restarts", Json.Int e.Service.restarts);
      ("crashes", Json.Int e.Service.crashes);
      ("recovered", Json.Bool e.Service.recovered);
    ]

let cell_json c =
  let r = c.report in
  let q, st, vl, re, es, rs, cr = totals r in
  Json.Obj
    ([
       ("algo", Json.Str c.algo);
       ("trace", Json.Str c.trace_name);
       ("sched", Json.Str c.sched_name);
       ("fallback", Json.Str c.fallback_name);
       ("seed", Json.Int c.seed_index);
       ("tier", Json.Str c.tier);
       ("n0", Json.Int c.n0);
       ("m0", Json.Int c.m0);
       ("n_final", Json.Int r.Service.n_final);
       ("m_final", Json.Int r.Service.m_final);
       ("base_rounds", Json.Int r.Service.base_rounds);
       ("rounds", Json.Int r.Service.rounds);
       ("steps", Json.Int r.Service.steps);
       ("recovered", Json.Bool r.Service.recovered);
       ("verdict", Json.Str (Watchdog.verdict_name r.Service.verdict));
       ("max_bits", Json.Int r.Service.max_bits);
     ]
    @ (match c.qps with Some rate -> [ ("qps", Json.Int rate) ] | None -> [])
    @ [
        ( "totals",
          Json.Obj
            [
              ("queries", Json.Int q);
              ("stale", Json.Int st);
              ("violations", Json.Int vl);
              ("retries", Json.Int re);
              ("escalations", Json.Int es);
              ("restarts", Json.Int rs);
              ("crashes", Json.Int cr);
            ] );
        ("events", Json.List (List.map event_json r.Service.events));
      ])

let campaign_json ~family ~n ~seeds ~seed_base ~traces ~retry_budget ~max_retries
    ~queries_per_round cells =
  let sum f =
    List.fold_left (fun acc c -> acc + f c.report) 0 cells
  in
  let n_events = sum (fun r -> List.length r.Service.events) in
  let n_escalations =
    sum (fun r ->
        List.fold_left
          (fun a (e : Service.event_outcome) -> a + e.Service.escalations)
          0 r.Service.events)
  in
  let n_restarts =
    sum (fun r ->
        List.fold_left
          (fun a (e : Service.event_outcome) -> a + e.Service.restarts)
          0 r.Service.events)
  in
  Json.Obj
    [
      ( "meta",
        Json.Obj
          [
            ("experiment", Json.Str "E13-service");
            ("graph", Json.Str family);
            ("n", Json.Int n);
            ("seeds", Json.Int seeds);
            ("seed_base", Json.Int seed_base);
            ("retry_budget", Json.Int retry_budget);
            ("max_retries", Json.Int max_retries);
            ("queries_per_round", Json.Int queries_per_round);
            ( "traces",
              Json.List (List.map (fun t -> Json.Str (Churn.name t)) traces) );
          ] );
      ("cells", Json.List (List.map cell_json cells));
      ( "summary",
        Json.Obj
          [
            ("cells", Json.Int (List.length cells));
            ("recovered", Json.Int (List.length cells - failed cells));
            ("failed", Json.Int (failed cells));
            ("events", Json.Int n_events);
            ("escalations", Json.Int n_escalations);
            ("restarts", Json.Int n_restarts);
          ] );
    ]
