module Graph = Repro_graph.Graph
module Traversal = Repro_graph.Traversal
module View = Repro_runtime.View

(* The local certificate of bfs_builder.mli: the layer's own, then one
   pass over the CSR — the [verify] PLS at every node plus a neighbor
   one hop closer at every non-root. *)
let is_bfs_tree g sts =
  St_layer.is_legal g sts
  &&
  let row = Graph.csr_row g and col = Graph.csr_col g in
  let ok = ref true and v = ref 0 in
  while !ok && !v < Graph.n g do
    let d = sts.(!v).St_layer.dist in
    let closer = ref (!v = 0) in
    for i = row.(!v) to row.(!v + 1) - 1 do
      let du = sts.(col.(i)).St_layer.dist in
      if du < d - 1 then ok := false else if du = d - 1 then closer := true
    done;
    if not !closer then ok := false;
    incr v
  done;
  !ok

let potential g sts =
  let d = Traversal.bfs_distances g ~src:0 in
  let n = Graph.n g in
  let total = ref 0 in
  Array.iteri
    (fun v (s : St_layer.t) ->
      let dv = if s.St_layer.dist < 0 then n else min s.St_layer.dist n in
      total := !total + abs (dv - min d.(v) n))
    sts;
  !total

module P = struct
  type state = St_layer.t

  let equal_state = St_layer.equal
  let pp_state = St_layer.pp
  let size_bits = St_layer.size_bits
  let initial _g v = St_layer.self_root v
  let random_state rng g _v = St_layer.random rng ~n:(Graph.n g)
  let step view = St_layer.step view ~get:Fun.id ~keep_shape:false
  let is_legal = is_bfs_tree
  let potential g sts = Some (potential g sts)
  let classify = Some St_layer.classify
end

module Engine = Repro_runtime.Engine.Make (P)

module Packed = struct
  include P

  let words = St_layer.words
  let pack ~n:_ s = St_layer.pack s
  let unpack ~n:_ a = St_layer.unpack a
  let step_packed pv = St_layer.step_packed pv ~keep_shape:false
end

module Engine_packed = Repro_runtime.Engine_packed.Make (Packed)

let verify (view : St_layer.t View.t) =
  View.for_all (fun _ _ (u : St_layer.t) -> u.dist >= view.View.self.St_layer.dist - 1) view
