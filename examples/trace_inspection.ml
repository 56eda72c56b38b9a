(* Convergence inspection: run the MST builder with an event ring
   attached and read, from its one recording, the per-round phi
   trajectory — the potential of Section VI decreasing to 0 — together
   with write/bit statistics and the per-node activity from the ring's
   retained moves.

     dune exec examples/trace_inspection.exe *)

open Repro_graph
open Repro_runtime
open Repro_core
module ME = Mst_builder.Engine

let () =
  let rng = Random.State.make [| 17 |] in
  let g = Generators.gnp rng ~n:16 ~p:0.3 in
  Format.printf "network: n=%d m=%d@." (Graph.n g) (Graph.m g);

  let capacity = 2000 in
  let events = Events.ring ~capacity ~record_phi:true () in
  let r = ME.run g (Scheduler.Central Scheduler.Round_robin) rng ~init:(ME.initial g) ~events in
  Format.printf "silent=%b legal=%b %a@." r.ME.silent r.ME.legal Events.pp_series events;

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
    (Events.phi_series events);

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

  (* The series covers the whole run even where the ring dropped events. *)
  let busiest =
    List.fold_left
      (fun (best : Events.sample) (s : Events.sample) -> if s.writes > best.writes then s else best)
      (List.hd (Events.samples events)) (Events.samples events)
  in
  Format.printf "@.busiest round: %d (%d writes, %d nodes enabled after it)@." busiest.round
    busiest.writes busiest.enabled
