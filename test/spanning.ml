(* Shared by test_core's legality-exactness inputs and test_oracle's
   MST registers. *)

open Repro_graph
module E = Graph.Edge

(* A random spanning tree over graph edges (random frontier growth from
   0), as a parent array plus the order nodes joined it. *)
let random_graph_tree rng g =
  let n = Graph.n g in
  let parent = Array.make n (-1) and inside = Array.make n false in
  let order = Array.make n 0 in
  inside.(0) <- true;
  for k = 1 to n - 1 do
    let frontier =
      Graph.fold_edges
        (fun (e : E.t) acc ->
          if inside.(e.E.u) <> inside.(e.E.v) then e :: acc else acc)
        [] g
    in
    let e = List.nth frontier (Random.State.int rng (List.length frontier)) in
    let u, v = if inside.(e.E.u) then (e.E.u, e.E.v) else (e.E.v, e.E.u) in
    parent.(v) <- u;
    inside.(v) <- true;
    order.(k) <- v
  done;
  (parent, order)
