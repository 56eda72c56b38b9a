(* Convergence inspection: run the MST builder with the telemetry sink
   attached and read the per-round phi trajectory — the potential of
   Section VI decreasing to 0 — together with write/bit statistics and
   the per-node activity from the event ring's retained moves.

     dune exec examples/trace_inspection.exe *)

open Repro_graph
open Repro_runtime
open Repro_core
module ME = Mst_builder.Engine

let () =
  let rng = Random.State.make [| 17 |] in
  let g = Generators.gnp rng ~n:16 ~p:0.3 in
  Format.printf "network: n=%d m=%d@." (Graph.n g) (Graph.m g);

  let telemetry = Telemetry.create () in
  let capacity = 2000 in
  let events = Events.ring ~capacity () in
  let r =
    ME.run g (Scheduler.Central Scheduler.Round_robin) rng ~init:(ME.initial g) ~telemetry
      ~events
  in
  Format.printf "silent=%b legal=%b %a@." r.ME.silent r.ME.legal Telemetry.pp telemetry;

  (* The phi trajectory, compressed to its change points: phi is undefined
     until the registers encode a tree, then decreases cyclically to 0
     (Lemma 3.1 / Section VI). *)
  Format.printf "@.phi trajectory (round: phi at each change):@.";
  let last = ref min_int in
  List.iter
    (fun (round, phi) ->
      if phi <> !last then begin
        Format.printf "  round %4d: phi = %d@." round phi;
        last := phi
      end)
    (Telemetry.phi_series telemetry);

  Format.printf "@.write counts per node (retained window of %d events):@." capacity;
  let writes = Array.make (Graph.n g) 0 in
  List.iter
    (fun (e : Events.event) ->
      match e.Events.kind with
      | Events.Move { node; _ } -> writes.(node) <- writes.(node) + 1
      | _ -> ())
    (Events.events events);
  Array.iteri
    (fun node count ->
      if count > 0 then Format.printf "  node %2d: %4d writes@." node count)
    writes;

  Format.printf "@.aggregated metrics:@.%a" Metrics.pp (Telemetry.registry telemetry)
