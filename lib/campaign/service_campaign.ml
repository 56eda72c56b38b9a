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
  report : Service.report;
}

let fallback_for sched_name =
  if sched_name = "random" then ("distributed", Scheduler.Distributed 0.5)
  else ("random", Scheduler.Central Scheduler.Random_daemon)

let churn_matrix ~pool ~gen ~n ~seeds ~seed_base ~algos ~traces ~daemons ~max_rounds
    ?trace_dir () =
  Campaign.run_matrix ~pool ~gen ~n ~seeds ~seed_base ~algos ~axis:"trace"
    ~points:(List.map (fun t -> (Churn.name t, t)) traces)
    ~daemons
    ~sched_meta:(fun sched_name -> [ ("fallback", Json.Str (fst (fallback_for sched_name))) ])
    ?trace_dir
    (fun (k : Campaign.key) trace sched g rng events ->
      let fallback_name, fallback = fallback_for k.sched_name in
      let report = Builders.serve ~max_rounds ?events k.builder g ~sched ~fallback rng trace in
      {
        algo = Builders.name k.builder;
        trace_name = k.point;
        sched_name = k.sched_name;
        fallback_name;
        seed_index = k.seed_index;
        n0 = Graph.n g;
        m0 = Graph.m g;
        tier = "std";
        report;
      })

(* ------------------------------------------------------------------ *)
(* The big serve-bench tier (serve --big, the @servebench alias):
   builder x size x churn trace on random-connected graphs under the
   synchronous daemon, one seed per cell like the big bench tier. *)

let big_ns = [ 1_000; 10_000; 100_000 ]
let big_algos = [ Builders.bfs; Builders.spt ]

let run_bench ~ns ~algos ~traces ~seed_base ~max_rounds () =
  let sched_name = "synchronous" and sched = Scheduler.Synchronous in
  let fallback_name, fallback = fallback_for sched_name in
  let specs =
    List.concat_map
      (fun builder ->
        List.concat_map (fun n -> List.map (fun t -> (builder, n, t)) traces) ns)
      algos
  in
  List.map
    (fun (builder, n, trace) ->
      let algo = Builders.name builder and trace_name = Churn.name trace in
      let rng =
        Random.State.make [| seed_base; Hashtbl.hash (algo, trace_name, sched_name); n; 1 |]
      in
      let g = Generators.random_connected rng ~n ~m:(2 * n) in
      let report = Builders.serve ~max_rounds builder g ~sched ~fallback rng trace in
      {
        algo;
        trace_name;
        sched_name;
        fallback_name;
        seed_index = 1;
        n0 = Graph.n g;
        m0 = Graph.m g;
        tier = "big";
        report;
      })
    specs

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

let sum f events = List.fold_left (fun acc (e : Service.event_outcome) -> acc + f e) 0 events

(* The per-event counters, in the order the CSV row and the artifact's
   event records and cell totals list them. *)
let counters : (string * (Service.event_outcome -> int)) list =
  [
    ("queries", fun e -> e.Service.queries);
    ("stale", fun e -> e.Service.stale);
    ("violations", fun e -> e.Service.violations);
    ("retries", fun e -> e.Service.retries);
    ("escalations", fun e -> e.Service.escalations);
    ("restarts", fun e -> e.Service.restarts);
    ("crashes", fun e -> e.Service.crashes);
  ]

let csv_row c =
  let r = c.report in
  Printf.sprintf "%s,%s,%s,%s,%d,%b,%s,%d,%d,%d,%d,%s" c.algo c.trace_name c.sched_name
    c.fallback_name c.seed_index r.Service.recovered
    (Watchdog.verdict_name r.Service.verdict)
    r.Service.base_rounds r.Service.rounds r.Service.steps
    (List.length r.Service.events)
    (String.concat ","
       (List.map (fun (_, get) -> string_of_int (sum get r.Service.events)) counters))

(* ------------------------------------------------------------------ *)
(* SERVICE_repro.json, declared once: the writer ([campaign_json]), the
   validator ([validate]) and bench-diff's reads ([Fields]) are all
   derived from these fields. *)

type artifact = {
  family : string;
  size : int;
  seeds : int;
  seed_base : int;
  traces : Churn.t list;
  cells : cell list;
}

let event : Service.event_outcome Artifact.t =
  Artifact.(
    [
      F (field "op" string (fun e -> e.Service.op));
      F (field "round" int (fun e -> e.Service.apply_round));
      F (field "gap" (nullable int) (fun e -> e.Service.gap));
      F (field "steps" int (fun (e : Service.event_outcome) -> e.steps));
    ]
    @ List.map (fun (name, get) -> F (field name int get)) counters
    @ [ F (field "recovered" bool (fun (e : Service.event_outcome) -> e.recovered)) ])

let totals : Service.event_outcome list Artifact.t =
  List.map (fun (name, get) -> Artifact.(F (field name int (sum get)))) counters

(* The cell fields bench-diff reads; {!cell} lists them in place. *)
module Fields = struct
  open Artifact

  let algo = field "algo" string (fun c -> c.algo)
  let trace = field "trace" string (fun c -> c.trace_name)
  let n0 = field "n0" int (fun c -> c.n0)
  let rounds = field "rounds" int (fun c -> c.report.Service.rounds)
  let steps = field "steps" int (fun c -> c.report.Service.steps)
  let max_bits = field "max_bits" int (fun c -> c.report.Service.max_bits)
end

let cell : cell Artifact.t =
  Artifact.
    [
      F Fields.algo;
      F Fields.trace;
      F (field "sched" string (fun c -> c.sched_name));
      F (field "fallback" string (fun c -> c.fallback_name));
      F (field "seed" int (fun c -> c.seed_index));
      F (field "tier" (optional (enum Campaign.tiers)) (fun c -> Some c.tier));
      F Fields.n0;
      F (field "m0" int (fun c -> c.m0));
      F (field "n_final" int (fun c -> c.report.Service.n_final));
      F (field "m_final" int (fun c -> c.report.Service.m_final));
      F (field "base_rounds" int (fun c -> c.report.Service.base_rounds));
      F Fields.rounds;
      F Fields.steps;
      F (field "recovered" bool recovered);
      F
        (field "verdict" (enum Watchdog.verdict_names) (fun c ->
             Watchdog.verdict_name c.report.Service.verdict));
      F Fields.max_bits;
      F (field "totals" (obj totals) (fun c -> c.report.Service.events));
      F (field "events" (list (obj event)) (fun c -> c.report.Service.events));
    ]

let cells = Artifact.(field "cells" (list (obj cell)) (fun a -> a.cells))

let artifact : artifact Artifact.t =
  let all_events cs = List.concat_map (fun c -> c.report.Service.events) cs in
  let escalations e = e.Service.escalations and restarts e = e.Service.restarts in
  Artifact.
    [
      F
        (field "meta"
           (obj
              [
                F (field "experiment" string (fun _ -> "E13-service"));
                F (field "graph" string (fun a -> a.family));
                F (field "n" int (fun a -> a.size));
                F (field "seeds" int (fun a -> a.seeds));
                F (field "seed_base" int (fun a -> a.seed_base));
                F (field "retry_budget" int (fun _ -> Service.retry_budget));
                F (field "max_retries" int (fun _ -> Service.max_retries));
                F (field "queries_per_round" int (fun _ -> Service.queries_per_round));
                F (field "traces" (list string) (fun a -> List.map Churn.name a.traces));
              ])
           Fun.id);
      F cells;
      F
        (field "summary"
           (obj
              [
                F (field "cells" int List.length);
                F (field "recovered" int (fun cs -> List.length cs - failed cs));
                F (field "failed" int failed);
                F (field "events" int (fun cs -> List.length (all_events cs)));
                F (field "escalations" int (fun cs -> sum escalations (all_events cs)));
                F (field "restarts" int (fun cs -> sum restarts (all_events cs)));
              ])
           (fun a -> a.cells));
    ]

let campaign_json ~family ~n ~seeds ~seed_base ~traces cells =
  Artifact.to_json artifact { family; size = n; seeds; seed_base; traces; cells }

let validate j =
  Result.bind (Artifact.check artifact j) (fun () ->
      Result.map List.length (Artifact.read cells j))
