(* Artifact validation: the committed BENCH/CHAOS/SERVICE artifacts are
   accepted with their record counts; one hand-built fixture per rule
   is rejected with its exact message (missing field, wrong type,
   unknown tier or verdict, a non-string trace name, errors nested in
   an injection, an event or the totals); optional fields may be null
   or absent; [Artifact.sniff] tells the three artifacts and a trace
   apart; the writers reproduce the committed artifacts' first cells
   byte for byte; and bench-diff fails on any count difference. *)

open Repro_runtime
module Json = Metrics.Json

let validate_bench = Repro_bench.Bench_record.validate
let validate_chaos = Repro_campaign.Campaign.validate
let validate_service = Repro_campaign.Service_campaign.validate

(* ------------------------------------------------------------------ *)
(* Editing a JSON document along a path of object keys and list
   indices. *)

type step = K of string | I of int

let rec edit path f j =
  match (path, j) with
  | [ K k ], Json.Obj fs -> (
      match f (List.assoc_opt k fs) with
      | None -> Json.Obj (List.remove_assoc k fs)
      | Some v when List.mem_assoc k fs ->
          Json.Obj (List.map (fun (k', x) -> if k' = k then (k, v) else (k', x)) fs)
      | Some v -> Json.Obj (fs @ [ (k, v) ]))
  | K k :: rest, Json.Obj fs ->
      Json.Obj (List.map (fun (k', x) -> if k' = k then (k', edit rest f x) else (k', x)) fs)
  | I i :: rest, Json.List l ->
      Json.List (List.mapi (fun i' x -> if i' = i then edit rest f x else x) l)
  | _ -> invalid_arg "edit: path does not fit the document"

let set path v = edit path (fun _ -> Some v)
let drop path = edit path (fun _ -> None)

(* ------------------------------------------------------------------ *)
(* Minimal valid documents *)

let obj_ints l = List.map (fun (k, v) -> (k, Json.Int v)) l

let bench_record exp =
  Json.Obj
    ([ ("exp", Json.Str exp); ("algo", Json.Str "mst") ]
    @ obj_ints [ ("n", 8) ]
    @ [ ("tier", Json.Str "std") ]
    @ obj_ints [ ("rounds", 3); ("steps", 10); ("max_bits", 20) ])

let bench =
  Json.Obj
    [ ("seed", Json.Int 1); ("experiments", Json.List [ bench_record "E1"; bench_record "E2" ]) ]

let injection gap =
  Json.Obj
    [ ("round", Json.Int 0); ("nodes", Json.List [ Json.Int 1; Json.Int 4 ]); ("gap", gap);
      ("radius", Json.Int 1); ("touched", Json.Int 2) ]

let chaos_cell injections =
  Json.Obj
    ([ ("algo", Json.Str "bfs"); ("plan", Json.Str "random:2/randomize@silence");
       ("sched", Json.Str "random") ]
    @ obj_ints
        [ ("seed", 1); ("n", 8); ("m", 10); ("base_rounds", 3); ("rounds", 2); ("steps", 5) ]
    @ [ ("silent", Json.Bool true); ("legal", Json.Bool true); ("recovered", Json.Bool true);
        ("verdict", Json.Str "converged"); ("max_bits", Json.Int 12);
        ("injections", Json.List injections) ])

let chaos =
  Json.Obj
    [
      ( "meta",
        Json.Obj
          ([ ("experiment", Json.Str "E8-chaos"); ("graph", Json.Str "gnp") ]
          @ obj_ints
              [ ("n", 8); ("seeds", 1); ("seed_base", 1); ("max_rounds", 100);
                ("max_injections", 2) ]) );
      ( "cells",
        Json.List
          [ chaos_cell []; chaos_cell [ injection Json.Null; injection (Json.Int 3) ] ] );
      ("summary", Json.Obj (obj_ints [ ("cells", 2); ("recovered", 2); ("failed", 0) ]));
    ]

let counters =
  [ "queries"; "stale"; "violations"; "retries"; "escalations"; "restarts"; "crashes" ]

let service_event gap =
  Json.Obj
    ([ ("op", Json.Str "del:2+5"); ("round", Json.Int 4); ("gap", gap); ("steps", Json.Int 3) ]
    @ List.map (fun k -> (k, Json.Int 0)) counters
    @ [ ("recovered", Json.Bool true) ])

let service_cell =
  Json.Obj
    ([ ("algo", Json.Str "bfs"); ("trace", Json.Str "regional:2@silence");
       ("sched", Json.Str "random"); ("fallback", Json.Str "distributed");
       ("seed", Json.Int 1); ("tier", Json.Str "std") ]
    @ obj_ints
        [ ("n0", 8); ("m0", 10); ("n_final", 8); ("m_final", 9); ("base_rounds", 3);
          ("rounds", 6); ("steps", 9) ]
    @ [ ("recovered", Json.Bool true); ("verdict", Json.Str "converged");
        ("max_bits", Json.Int 12);
        ("totals", Json.Obj (List.map (fun k -> (k, Json.Int 0)) counters));
        ("events", Json.List [ service_event Json.Null; service_event (Json.Int 2) ]) ])

let service =
  Json.Obj
    [
      ( "meta",
        Json.Obj
          ([ ("experiment", Json.Str "E13-service"); ("graph", Json.Str "gnp") ]
          @ obj_ints
              [ ("n", 8); ("seeds", 1); ("seed_base", 1); ("retry_budget", 2000);
                ("max_retries", 2); ("queries_per_round", 2) ]
          @ [ ("traces", Json.List [ Json.Str "regional:2@silence" ]) ]) );
      ("cells", Json.List [ service_cell ]);
      ( "summary",
        Json.Obj
          (obj_ints
             [ ("cells", 1); ("recovered", 1); ("failed", 0); ("events", 2);
               ("escalations", 0); ("restarts", 0) ]) );
    ]

(* ------------------------------------------------------------------ *)

let result = Alcotest.(result int string)

let case validate name doc expected =
  Alcotest.test_case name `Quick (fun () -> Alcotest.check result name expected (validate doc))

let bench_cases =
  let v = case validate_bench in
  [
    v "minimal document" bench (Ok 2);
    v "missing seed" (drop [ K "seed" ] bench) (Error "missing field \"seed\"");
    v "missing steps" (drop [ K "experiments"; I 1; K "steps" ] bench)
      (Error "experiment 1: missing field \"steps\"");
    v "n not an int" (set [ K "experiments"; I 0; K "n" ] (Json.Str "8") bench)
      (Error "experiment 0: field \"n\" is not an int");
    v "experiments not a list" (set [ K "experiments" ] (Json.Int 0) bench)
      (Error "field \"experiments\" is not a list");
    v "unknown tier" (set [ K "experiments"; I 1; K "tier" ] (Json.Str "huge") bench)
      (Error "experiment 1: unknown tier \"huge\"");
    v "tier not a string" (set [ K "experiments"; I 0; K "tier" ] (Json.Int 1) bench)
      (Error "experiment 0: field \"tier\" is not a string or null");
    v "pre-tier records"
      (drop [ K "experiments"; I 0; K "tier" ] (drop [ K "experiments"; I 1; K "tier" ] bench))
      (Ok 2);
    v "null tier" (set [ K "experiments"; I 0; K "tier" ] Json.Null bench) (Ok 2);
    v "extra field" (set [ K "experiments"; I 0; K "note" ] (Json.Str "x") bench) (Ok 2);
  ]

let chaos_cases =
  let v = case validate_chaos in
  let inj i = [ K "cells"; I 1; K "injections"; I i ] in
  [
    v "minimal document" chaos (Ok 2);
    v "missing meta field" (drop [ K "meta"; K "max_injections" ] chaos)
      (Error "missing field \"max_injections\"");
    v "missing summary field" (drop [ K "summary"; K "failed" ] chaos)
      (Error "missing field \"failed\"");
    v "silent not a bool" (set [ K "cells"; I 1; K "silent" ] (Json.Int 1) chaos)
      (Error "cell 1: field \"silent\" is not a bool");
    v "plan not a string" (set [ K "cells"; I 0; K "plan" ] (Json.Int 1) chaos)
      (Error "cell 0: field \"plan\" is not a string");
    v "unknown verdict" (set [ K "cells"; I 0; K "verdict" ] (Json.Str "exploded") chaos)
      (Error "cell 0: unknown verdict \"exploded\"");
    v "injections not a list" (set [ K "cells"; I 1; K "injections" ] (Json.Obj []) chaos)
      (Error "cell 1: field \"injections\" is not a list");
    v "injection gap not an int" (set (inj 1 @ [ K "gap" ]) (Json.Str "3") chaos)
      (Error "cell 1: injection 1: field \"gap\" is not an int or null");
    v "injection node not an int"
      (set (inj 0 @ [ K "nodes" ]) (Json.List [ Json.Int 1; Json.Str "x" ]) chaos)
      (Error "cell 1: injection 0: field \"nodes\" contains a non-int");
    v "injection missing touched" (drop (inj 0 @ [ K "touched" ]) chaos)
      (Error "cell 1: injection 0: missing field \"touched\"");
    v "null and absent gap" (drop (inj 1 @ [ K "gap" ]) chaos) (Ok 2);
  ]

let service_cases =
  let v = case validate_service in
  let cell = [ K "cells"; I 0 ] in
  [
    v "minimal document" service (Ok 1);
    v "non-string trace name"
      (set [ K "meta"; K "traces" ] (Json.List [ Json.Str "a"; Json.Int 2 ]) service)
      (Error "field \"traces\" contains a non-string");
    v "missing meta traces" (drop [ K "meta"; K "traces" ] service)
      (Error "missing field \"traces\"");
    v "missing summary field" (drop [ K "summary"; K "restarts" ] service)
      (Error "missing field \"restarts\"");
    v "missing n_final" (drop (cell @ [ K "n_final" ]) service)
      (Error "cell 0: missing field \"n_final\"");
    (* Written since the artifact existed, and always read by bench-diff;
       the validator checks them since both derive from one declaration. *)
    v "missing rounds" (drop (cell @ [ K "rounds" ]) service)
      (Error "cell 0: missing field \"rounds\"");
    v "unknown tier" (set (cell @ [ K "tier" ]) (Json.Str "huge") service)
      (Error "cell 0: unknown tier \"huge\"");
    v "unknown verdict" (set (cell @ [ K "verdict" ]) (Json.Str "exploded") service)
      (Error "cell 0: unknown verdict \"exploded\"");
    v "totals missing a counter" (drop (cell @ [ K "totals"; K "stale" ]) service)
      (Error "cell 0: missing field \"stale\"");
    v "event recovered not a bool"
      (set (cell @ [ K "events"; I 1; K "recovered" ]) (Json.Int 1) service)
      (Error "cell 0: event 1: field \"recovered\" is not a bool");
    v "event gap not an int"
      (set (cell @ [ K "events"; I 1; K "gap" ]) (Json.Bool true) service)
      (Error "cell 0: event 1: field \"gap\" is not an int or null");
    (* Cells written before the artifact dropped its timing carry an
       extra "qps", which still validates. *)
    v "pre-tier cell with qps"
      (drop (cell @ [ K "tier" ]) (set (cell @ [ K "qps" ]) (Json.Int 9) service))
      (Ok 1);
  ]

(* ------------------------------------------------------------------ *)
(* The committed artifacts *)

let slurp file = In_channel.with_open_bin file In_channel.input_all

let committed =
  [
    ("BENCH_repro.json", validate_bench, `Bench, "experiments");
    ("CHAOS_repro.json", validate_chaos, `Chaos, "cells");
    ("SERVICE_repro.json", validate_service, `Service, "cells");
  ]

let committed_cases =
  List.map
    (fun (file, validate, kind, records) ->
      Alcotest.test_case file `Quick (fun () ->
          let contents = slurp (Filename.concat ".." file) in
          let j = Option.get (Json.of_string contents) in
          let count =
            match Json.member records j with Some (Json.List l) -> List.length l | _ -> -1
          in
          Alcotest.(check bool) "has records" true (count > 0);
          Alcotest.check result "accepted" (Ok count) (validate j);
          Alcotest.(check bool) "sniffed" true (Artifact.sniff contents = Some kind)))
    committed

(* The writers against the committed artifacts: every cell is hermetic
   (seeded by its coordinates), so a one-cell matrix at the committed
   arguments reproduces the committed first cell, which must come out
   byte for byte, and so must the meta header. *)

let committed_json file = Option.get (Json.of_string (slurp (Filename.concat ".." file)))

let first_cell j =
  match Json.member "cells" j with Some (Json.List (c :: _)) -> c | _ -> Json.Null

let same_bytes what expected actual =
  Alcotest.(check string) what (Json.to_string expected) (Json.to_string actual)

let gnp = Option.get (Repro_graph.Generators.by_name "gnp")
let random_daemon = [ ("random", Option.get (Scheduler.by_name "random")) ]

let writer_cases =
  let open Repro_campaign in
  [
    Alcotest.test_case "CHAOS_repro.json meta and first cell" `Quick (fun () ->
        let committed = committed_json "CHAOS_repro.json" in
        let cells =
          Pool.with_pool ~jobs:1 (fun pool ->
              Campaign.chaos_matrix ~pool ~gen:gnp ~n:32 ~seeds:1 ~seed_base:1
                ~algos:[ Builders.bfs ] ~plans:[ List.hd Fault.Plan.defaults ]
                ~daemons:random_daemon ())
        in
        let fresh =
          Campaign.campaign_json ~family:"gnp" ~n:32 ~seeds:3 ~seed_base:1 cells
        in
        let meta j = Option.get (Json.member "meta" j) in
        same_bytes "meta" (meta committed) (meta fresh);
        same_bytes "first cell" (first_cell committed) (first_cell fresh));
    Alcotest.test_case "SERVICE_repro.json meta and first cell" `Quick (fun () ->
        let committed = committed_json "SERVICE_repro.json" in
        let traces = Repro_service.Churn.defaults in
        let cells =
          Pool.with_pool ~jobs:1 (fun pool ->
              Service_campaign.churn_matrix ~pool ~gen:gnp ~n:16 ~seeds:1 ~seed_base:1
                ~algos:[ Builders.bfs ] ~traces:[ List.hd traces ]
                ~daemons:random_daemon ())
        in
        let fresh =
          Service_campaign.campaign_json ~family:"gnp" ~n:16 ~seeds:2 ~seed_base:1 ~traces
            cells
        in
        let meta j = Option.get (Json.member "meta" j) in
        same_bytes "meta" (meta committed) (meta fresh);
        same_bytes "first cell" (first_cell committed) (first_cell fresh));
    (* The big tier's n = 1000 cells (bfs then spt, flash-crowd:2 then
       :8; the first is SERVICE's first big cell) through the matrix
       driver: pins their order and RNG keys. *)
    Alcotest.test_case "SERVICE_repro.json big-tier cells at n=1000" `Quick (fun () ->
        let committed = committed_json "SERVICE_repro.json" in
        let big_1000 c =
          Json.member "tier" c = Some (Json.Str "big")
          && Json.member "n0" c = Some (Json.Int 1_000)
        in
        let committed_cells =
          match Json.member "cells" committed with
          | Some (Json.List cs) -> List.filter big_1000 cs
          | _ -> []
        in
        let cells =
          Pool.with_pool ~jobs:1 (fun pool ->
              Service_campaign.big_matrix ~pool ~nmax:1_000 ~seed_base:1)
        in
        let fresh =
          Service_campaign.campaign_json ~family:"gnp" ~n:16 ~seeds:2 ~seed_base:1
            ~traces:Repro_service.Churn.defaults cells
        in
        let fresh_cells =
          match Json.member "cells" fresh with Some (Json.List cs) -> cs | _ -> []
        in
        Alcotest.(check int) "cells" 4 (List.length committed_cells);
        same_bytes "n=1000 big cells" (Json.List committed_cells)
          (Json.List fresh_cells));
  ]

(* ------------------------------------------------------------------ *)
(* bench-diff: counts compare exactly, records only in OLD are skipped,
   and --require-identical is plain JSON equality. *)

module Diff = Repro_bench.Diff

let record ?(steps = 10) ?(max_bits = 20) exp =
  { Diff.exp; algo = "mst"; n = 8; rounds = 3; steps; max_bits }

(* "KEY: DIFFERENCES" for every comparison that fails. *)
let failing old_records new_records =
  let r = Diff.diff ~old_records ~new_records in
  let lines =
    List.filter_map
      (fun (c : Diff.comparison) ->
        if c.Diff.differences = [] then None
        else
          Some
            (Format.asprintf "%a: %s" Diff.pp_key c.Diff.ckey
               (String.concat "; " c.Diff.differences)))
      r.Diff.comparisons
  in
  Alcotest.(check int) "failures" (List.length lines) r.Diff.failures;
  lines

let failures = Alcotest.(list string)

let diff_cases =
  [
    Alcotest.test_case "identical records" `Quick (fun () ->
        let both = [ record "E1"; record "E2" ] in
        Alcotest.check failures "none" [] (failing both both));
    Alcotest.test_case "one-step steps drift" `Quick (fun () ->
        Alcotest.check failures "up" [ "E2/mst/n=8: steps 10 -> 11" ]
          (failing [ record "E1"; record "E2" ] [ record "E1"; record ~steps:11 "E2" ]);
        Alcotest.check failures "down" [ "E1/mst/n=8: steps 10 -> 9" ]
          (failing [ record "E1" ] [ record ~steps:9 "E1" ]));
    Alcotest.test_case "max_bits change" `Quick (fun () ->
        Alcotest.check failures "bits" [ "E1/mst/n=8: max_bits 20 -> 21" ]
          (failing [ record "E1" ] [ record ~max_bits:21 "E1" ]));
    Alcotest.test_case "OLD-only record skipped" `Quick (fun () ->
        let r =
          Diff.diff ~old_records:[ record "E1"; record "E2" ] ~new_records:[ record "E1" ]
        in
        Alcotest.(check int) "compared" 1 (List.length r.Diff.comparisons);
        Alcotest.(check int) "failures" 0 r.Diff.failures;
        Alcotest.(check (list string)) "missing" [ "E2/mst/n=8" ]
          (List.map (Format.asprintf "%a" Diff.pp_key) r.Diff.missing));
    Alcotest.test_case "parent-format BENCH vs stripped" `Quick (fun () ->
        let parent = set [ K "experiments"; I 0; K "wall_ns" ] (Json.Int 100) bench in
        Alcotest.(check (option string)) "identical" None (Diff.first_divergence bench bench);
        Alcotest.(check (option string)) "divergence"
          (Some
             "$.experiments[0]: field sets differ \
              ({exp,algo,n,tier,rounds,steps,max_bits,wall_ns} vs \
              {exp,algo,n,tier,rounds,steps,max_bits})")
          (Diff.first_divergence parent bench));
  ]

let sniff_cases =
  [
    Alcotest.test_case "trace and unknown" `Quick (fun () ->
        let trace = "{\"ev\":\"meta\",\"algo\":\"bfs\"}\n{\"ev\":\"round\",\"id\":0}\n" in
        Alcotest.(check bool) "trace" true (Artifact.sniff trace = Some `Trace);
        Alcotest.(check bool) "fixtures" true
          (List.map
             (fun j -> Artifact.sniff (Json.to_string j))
             [ bench; chaos; service ]
          = [ Some `Bench; Some `Chaos; Some `Service ]);
        Alcotest.(check bool) "unknown" true (Artifact.sniff "{\"x\":1}" = None));
  ]

let () =
  Alcotest.run "repro_artifact"
    [
      ("bench", bench_cases);
      ("chaos", chaos_cases);
      ("service", service_cases);
      ("committed", committed_cases);
      ("writers", writer_cases);
      ("diff", diff_cases);
      ("sniff", sniff_cases);
    ]
