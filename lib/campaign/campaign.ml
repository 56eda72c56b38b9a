open Repro_graph
open Repro_runtime
module Json = Metrics.Json

type key = {
  builder : Builders.t;
  point : string;
  sched_name : string;
  seed_index : int;
}

type cell = {
  algo : string;
  plan_name : string;
  sched_name : string;
  seed_index : int;
  n : int;
  m : int;
  base_rounds : int;
  rounds : int;
  steps : int;
  silent : bool;
  legal : bool;
  recovered : bool;
  verdict : string;
  max_bits : int;
  injections : Chaos.injection list;
}

(* Per-cell trace filenames embed the cell coordinates; plan names
   contain '/' and '@', daemon names ':', so anything outside the
   filename-safe alphabet collapses to '-'. *)
let sanitize s =
  String.map
    (function ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-') as c -> c | _ -> '-')
    s

let run_matrix ~pool ~gen ~ns ~seeds ~seed_base ~algos ~axis ~points ~daemons
    ?(sched_meta = fun _ -> []) ?trace_dir cell =
  (* The cell list is enumerated sequentially in canonical order; the
     pool maps over it and hands results back in the same order, so
     the artifact is independent of worker interleaving. *)
  let specs =
    List.concat_map
      (fun builder ->
        List.concat_map
          (fun n ->
            List.concat_map
              (fun (point, p) ->
                List.concat_map
                  (fun (sched_name, sched) ->
                    List.init seeds (fun i ->
                        let k = { builder; point; sched_name; seed_index = i + 1 } in
                        (k, n, p, sched)))
                  daemons)
              points)
          ns)
      algos
  in
  Pool.map pool
    (fun ((k : key), n, p, sched) ->
      (* One seed pins the topology, the initial configuration, every
         daemon pick and every fault or churn coin of the cell. *)
      let algo = Builders.name k.builder in
      let rng =
        Random.State.make
          [| seed_base; Hashtbl.hash (algo, k.point, k.sched_name); n; k.seed_index |]
      in
      let g = gen rng ~n in
      match trace_dir with
      | None -> cell k p sched g rng None
      | Some dir ->
          (* When tracing, each cell streams to its own JSONL file; the
             sink never consumes RNG, so traced and untraced campaigns
             produce byte-identical artifacts. *)
          let file =
            Filename.concat dir
              (Printf.sprintf "%s__%s__%s__s%d.jsonl" (sanitize algo) (sanitize k.point)
                 (sanitize k.sched_name) k.seed_index)
          in
          let oc = open_out file in
          Fun.protect
            ~finally:(fun () -> close_out oc)
            (fun () ->
              let sink = Events.stream ~record_phi:(Builders.cheap_phi k.builder) oc in
              Events.meta sink
                ([ ("algo", Json.Str algo); (axis, Json.Str k.point);
                   ("sched", Json.Str k.sched_name) ]
                @ sched_meta k.sched_name
                @ [
                    ("seed", Json.Int k.seed_index);
                    ("n", Json.Int (Graph.n g));
                    ("m", Json.Int (Graph.m g));
                  ]
                @ Events.edges_meta g);
              cell k p sched g rng (Some sink)))
    specs

let chaos_cell (type s) (e : s Builders.entry) (k : key) plan sched g rng events : cell =
  let module C = Chaos.Make ((val e.Builders.protocol)) ((val Builders.engine e)) in
  let x = C.run_episode ~watch_phi:e.Builders.cheap_phi ?events g sched rng plan in
  {
    algo = e.Builders.name;
    plan_name = k.point;
    sched_name = k.sched_name;
    seed_index = k.seed_index;
    n = Graph.n g;
    m = Graph.m g;
    base_rounds = x.C.base_rounds;
    rounds = x.C.rounds;
    steps = x.C.steps;
    silent = x.C.silent;
    legal = x.C.legal;
    recovered = x.C.recovered;
    verdict = Watchdog.verdict_name x.C.verdict;
    max_bits = x.C.max_bits;
    injections = x.C.injections;
  }

let chaos_matrix ~pool ~gen ~n ~seeds ~seed_base ~algos ~plans ~daemons ?trace_dir () =
  run_matrix ~pool ~gen ~ns:[ n ] ~seeds ~seed_base ~algos ~axis:"plan"
    ~points:(List.map (fun p -> (Fault.Plan.name p, p)) plans)
    ~daemons ?trace_dir
    (fun k plan sched g rng events ->
      match k.builder with
      | Builders.Builder e -> chaos_cell e k plan sched g rng events)

let failed cells = List.length (List.filter (fun c -> not c.recovered) cells)

let failure_line c =
  Printf.sprintf "algo=%s plan=%s sched=%s seed=%d: verdict=%s (%d injections)" c.algo
    c.plan_name c.sched_name c.seed_index c.verdict (List.length c.injections)

let csv_header = "algo,plan,sched,seed,recovered,verdict,base_rounds,rounds,steps,injections"

let csv_row c =
  Printf.sprintf "%s,%s,%s,%d,%b,%s,%d,%d,%d,%d" c.algo c.plan_name c.sched_name
    c.seed_index c.recovered c.verdict c.base_rounds c.rounds c.steps
    (List.length c.injections)

(* ------------------------------------------------------------------ *)
(* CHAOS_repro.json, declared once: the writer ([campaign_json]) and
   the validator ([validate]) are both derived from these fields. *)

let tiers = [ "std"; "big" ]

type artifact = {
  family : string;
  size : int;
  seeds : int;
  seed_base : int;
  cells : cell list;
}

let injection : Chaos.injection Artifact.t =
  Artifact.
    [
      F (field "round" int (fun i -> i.Chaos.round));
      F (field "nodes" (list int) (fun i -> i.Chaos.nodes));
      F (field "gap" (nullable int) (fun i -> i.Chaos.gap));
      F (field "radius" (nullable int) (fun i -> i.Chaos.radius));
      F (field "touched" int (fun i -> i.Chaos.touched));
    ]

let cell : cell Artifact.t =
  Artifact.
    [
      F (field "algo" string (fun c -> c.algo));
      F (field "plan" string (fun c -> c.plan_name));
      F (field "sched" string (fun c -> c.sched_name));
      F (field "seed" int (fun c -> c.seed_index));
      F (field "n" int (fun c -> c.n));
      F (field "m" int (fun c -> c.m));
      F (field "base_rounds" int (fun c -> c.base_rounds));
      F (field "rounds" int (fun c -> c.rounds));
      F (field "steps" int (fun c -> c.steps));
      F (field "silent" bool (fun c -> c.silent));
      F (field "legal" bool (fun c -> c.legal));
      F (field "recovered" bool (fun c -> c.recovered));
      F (field "verdict" (enum Watchdog.verdict_names) (fun c -> c.verdict));
      F (field "max_bits" int (fun c -> c.max_bits));
      F (field "injections" (list (obj injection)) (fun c -> c.injections));
    ]

let cells = Artifact.(field "cells" (list (obj cell)) (fun a -> a.cells))

let artifact : artifact Artifact.t =
  Artifact.
    [
      F
        (field "meta"
           (obj
              [
                F (field "experiment" string (fun _ -> "E8-chaos"));
                F (field "graph" string (fun a -> a.family));
                F (field "n" int (fun a -> a.size));
                F (field "seeds" int (fun a -> a.seeds));
                F (field "seed_base" int (fun a -> a.seed_base));
                F (field "max_rounds" int (fun _ -> Chaos.max_rounds));
                F (field "max_injections" int (fun _ -> Chaos.max_injections));
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
              ])
           (fun a -> a.cells));
    ]

let campaign_json ~family ~n ~seeds ~seed_base cells =
  Artifact.to_json artifact { family; size = n; seeds; seed_base; cells }

let validate j =
  Result.bind (Artifact.check artifact j) (fun () ->
      Result.map List.length (Artifact.read cells j))
