(* Tests for the metrics series and its JSON: writer/parser
   round-trips, the per-round series an event sink folds (round
   accounting, and the per-round phi trajectory of a synchronous MST run:
   non-increasing once the configuration is legal, ending at 0), and a
   property pinning that fold to the pre-refactor Telemetry sink, kept
   verbatim in test/oracle and driven from the engine's public hooks. *)

open Repro_graph
open Repro_runtime
open Repro_core
module Json = Metrics.Json
module Builders = Repro_campaign.Builders
module Telemetry = Builder_oracle.Telemetry
module Telemetry_hooks = Builder_oracle.Telemetry_hooks

let seed i = Random.State.make [| 0x7E1E; i |]

(* ------------------------------------------------------------------ *)
(* JSON round-trips *)

let test_json_roundtrip () =
  let j =
    Json.Obj
      [
        ("null", Json.Null);
        ("bools", Json.List [ Json.Bool true; Json.Bool false ]);
        ("ints", Json.List [ Json.Int 0; Json.Int (-17); Json.Int max_int ]);
        ("float", Json.Float 0.5);
        ("escaped", Json.Str "a \"quote\", a \\ backslash,\na newline\tand \001 control");
        ("empty_obj", Json.Obj []);
        ("empty_list", Json.List []);
        ("nested", Json.Obj [ ("k", Json.List [ Json.Obj [ ("x", Json.Int 1) ] ]) ]);
      ]
  in
  match Json.of_string (Json.to_string j) with
  | Some j' -> Alcotest.(check bool) "round-trip equal" true (j = j')
  | None -> Alcotest.fail "round-trip parse failed"

let test_json_rejects_garbage () =
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "rejects %S" s)
        true
        (Json.of_string s = None))
    [ ""; "{"; "[1,]"; "{\"a\":}"; "nul"; "1 2"; "\"unterminated" ]

(* The full escape grammar, exercised from both ends: a property over
   the Json AST with strings drawn from arbitrary bytes (every control
   character goes through the writer's escape path), and directed
   \uXXXX decoding cases including surrogate pairs. Floats are excluded
   from the generator: NaN/infinity have no JSON form. *)
let json_gen =
  let open QCheck2.Gen in
  let raw_string n = string_size ~gen:char (int_bound n) in
  sized
  @@ fix (fun self n ->
         let leaf =
           oneof
             [
               return Json.Null;
               map (fun b -> Json.Bool b) bool;
               map (fun i -> Json.Int i) int;
               map (fun s -> Json.Str s) (raw_string 12);
             ]
         in
         if n <= 0 then leaf
         else
           frequency
             [
               (3, leaf);
               (1, map (fun l -> Json.List l) (list_size (int_bound 4) (self (n / 2))));
               ( 1,
                 map
                   (fun kvs -> Json.Obj kvs)
                   (list_size (int_bound 4) (pair (raw_string 8) (self (n / 2)))) );
             ])

let prop_json_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500
       ~name:"json writer/parser round-trip over arbitrary byte strings" json_gen (fun j ->
         Json.of_string (Json.to_string j) = Some j))

let test_json_unicode_escapes () =
  List.iter
    (fun (input, expect) ->
      match Json.of_string input with
      | Some (Json.Str s) -> Alcotest.(check string) input expect s
      | _ -> Alcotest.failf "failed to parse %s" input)
    [
      ({|"\u0041"|}, "A");
      ({|"\u00e9"|}, "\xc3\xa9") (* e-acute as two UTF-8 bytes *);
      ({|"\u2713"|}, "\xe2\x9c\x93") (* check mark, three bytes *);
      ({|"\ud83d\ude00"|}, "\xf0\x9f\x98\x80") (* surrogate pair -> U+1F600 *);
      ({|"\b\f"|}, "\b\012");
    ];
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "rejects %s" s)
        true
        (Json.of_string s = None))
    [
      {|"\u12g4"|} (* non-hex digit *);
      {|"\u1_23"|} (* underscores are not hex *);
      {|"\u123"|} (* too short *);
      {|"\ud800"|} (* lone high surrogate *);
      {|"\udc00"|} (* lone low surrogate *);
      {|"\ud83dA"|} (* high surrogate not followed by a low one *);
    ]

(* ------------------------------------------------------------------ *)
(* The series an event sink folds, on a real run *)

module ME = Mst_builder.Engine

let mst_run () =
  let rng = seed 1 in
  let g = Generators.random_connected rng ~n:12 ~m:24 in
  let sink = Events.series () in
  let r =
    ME.run ~track_legal:true g Scheduler.Synchronous rng ~init:(ME.initial g) ~events:sink
  in
  (g, r, sink)

let test_round_accounting () =
  let _g, r, sink = mst_run () in
  Alcotest.(check bool) "silent" true r.ME.silent;
  let samples = Events.samples sink in
  Alcotest.(check bool) "one sample per round boundary" true
    (List.length samples = r.ME.rounds + 1);
  let last = List.nth samples (List.length samples - 1) in
  Alcotest.(check int) "writes_total = engine steps" r.ME.steps last.Events.writes_total;
  Alcotest.(check int) "no node enabled at the end" 0 last.Events.enabled;
  let sum_writes = List.fold_left (fun acc s -> acc + s.Events.writes) 0 samples in
  Alcotest.(check int) "per-round writes sum to the total" r.ME.steps sum_writes;
  Alcotest.(check bool) "round-boundary max_bits <= engine max_bits" true
    (List.for_all (fun s -> s.Events.max_bits <= r.ME.max_bits) samples);
  Alcotest.(check int) "a series sink retains no events" 0 (Events.retained sink)

let test_series_json_roundtrip () =
  let _g, _r, sink = mst_run () in
  let j = Events.series_json ~meta:[ ("algo", Json.Str "mst") ] sink in
  match Json.of_string (Json.to_string j) with
  | None -> Alcotest.fail "series json does not parse"
  | Some j' ->
      Alcotest.(check bool) "round-trip equal" true (j = j');
      (match Json.member "summary" j' with
      | Some s ->
          Alcotest.(check bool) "phi_final = 0" true
            (Json.member "phi_final" s = Some (Json.Int 0))
      | None -> Alcotest.fail "no summary");
      (match Json.member "rounds" j' with
      | Some (Json.List l) ->
          Alcotest.(check bool) "per-round series present" true (List.length l > 1)
      | _ -> Alcotest.fail "no rounds series")

let test_phi_non_increasing_after_legal () =
  let _g, r, sink = mst_run () in
  let first_legal =
    match r.ME.first_legal_round with
    | Some x -> x
    | None -> Alcotest.fail "run never became legal"
  in
  let phis = Events.phi_series sink in
  Alcotest.(check bool) "phi defined on some rounds" true (phis <> []);
  let _, final = List.nth phis (List.length phis - 1) in
  Alcotest.(check int) "phi ends at 0" 0 final;
  (* After the last illegitimate round (once the configuration is legal),
     phi never increases again. *)
  let rec check = function
    | (r1, p1) :: ((r2, p2) :: _ as rest) ->
        if r1 >= first_legal && r2 >= first_legal then
          Alcotest.(check bool)
            (Printf.sprintf "phi non-increasing %d->%d (rounds %d->%d)" p1 p2 r1 r2)
            true (p2 <= p1);
        check rest
    | _ -> ()
  in
  check phis

let test_record_phi_opt_out () =
  let rng = seed 2 in
  let g = Generators.random_connected rng ~n:10 ~m:20 in
  let sink = Events.series ~record_phi:false () in
  let r = ME.run g Scheduler.Synchronous rng ~init:(ME.initial g) ~events:sink in
  Alcotest.(check bool) "silent" true r.ME.silent;
  Alcotest.(check (list (pair int int))) "no phi recorded" [] (Events.phi_series sink)

(* ------------------------------------------------------------------ *)
(* The fold equals the pre-refactor sink. For every builder on the
   engine the registry picks for it, under every daemon of the extended
   roster, from the designated and from an adversarial start, with an
   adversary corrupting two nodes at round 2, run to its limits and cut
   short by [stop_when] after 25 writes: the event sink's series and
   summary JSON equal what the oracle Telemetry computes from the
   [on_round]/[on_step] hooks of the same run. Limits stay low: some
   builder/daemon pairs livelock by design (MST under max-id). *)

let series_match (Builders.Builder e) (sd, g) =
  let module E = (val Builders.engine e) in
  let module P = (val e.Builders.protocol) in
  let n = Graph.n g in
  let frng = Random.State.make [| sd; 9 |] in
  let faults = List.map (fun v -> (v, P.random_state frng g v)) [ 0; n - 1 ] in
  let adversary ~round _ = if round = 2 then faults else [] in
  let run sched ~adversarial ~cut =
    let init =
      if adversarial then E.adversarial (Random.State.make [| sd; 7 |]) g else E.initial g
    in
    let tel, on_round, on_write = Telemetry_hooks.attach (module P) g in
    let steps = ref 0 in
    let on_step v sts =
      incr steps;
      on_write v sts
    in
    let stop_when () = cut && !steps >= 25 in
    let sink = Events.series () in
    ignore
      (E.run ~max_steps:2_000 ~max_rounds:200 ~on_round ~on_step ~adversary ~stop_when
         ~events:sink g sched
         (Random.State.make [| sd; 31 |])
         ~init);
    let ours = Events.series_json sink and theirs = Telemetry.to_json tel in
    List.for_all (fun k -> Json.member k ours = Json.member k theirs) [ "rounds"; "summary" ]
  in
  List.for_all
    (fun (name, sched) ->
      List.for_all
        (fun (adversarial, cut) ->
          run sched ~adversarial ~cut
          || QCheck2.Test.fail_reportf "%s under %s (n=%d, adversarial %b, cut %b)"
               e.Builders.name name n adversarial cut)
        [ (false, false); (true, false); (false, true); (true, true) ])
    Scheduler.extended

let prop_series_oracle =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:12
       ~name:"event-sink series = oracle Telemetry (every builder x extended roster)"
       QCheck2.Gen.(
         let* n = int_range 2 8 in
         let* extra = int_range 0 n in
         let* sd = int_bound 1_000_000 in
         return
           (sd, Generators.random_connected (Random.State.make [| sd |]) ~n ~m:(n - 1 + extra)))
       (fun case -> List.for_all (fun b -> series_match b case) Builders.all))

(* ------------------------------------------------------------------ *)

let () =
  QCheck_base_runner.set_seed 20260704;
  Alcotest.run "repro_telemetry"
    [
      ( "json",
        [
          Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_json_rejects_garbage;
          prop_json_roundtrip;
          Alcotest.test_case "unicode escapes" `Quick test_json_unicode_escapes;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "round accounting" `Quick test_round_accounting;
          Alcotest.test_case "json round-trip, phi_final = 0" `Quick
            test_series_json_roundtrip;
          Alcotest.test_case "phi non-increasing after legality" `Quick
            test_phi_non_increasing_after_legal;
          Alcotest.test_case "record_phi opt-out" `Quick test_record_phi_opt_out;
          prop_series_oracle;
        ] );
    ]
