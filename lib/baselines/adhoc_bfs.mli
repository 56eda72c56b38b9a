(** Ad-hoc rooted BFS baseline (Huang–Chen style, [42] in the paper).

    Solves the {e easier} task where the root is known (node 0 is aware
    it is the root): every node maintains only a distance and a parent,
    [d(0) = 0], [d(v) = 1 + min] over neighbors, parent = a closest
    neighbor. Silent, O(log n) bits, O(n) rounds — the comparison row for
    the paper's PLS-guided BFS (which additionally elects the root). *)

type state = { parent : int; dist : int }

(** [P.is_legal g sts] — [dist] is the hop distance to node 0 and every
    [v <> 0] has a graph-neighbour parent one hop closer. It is decided
    by a per-node certificate ([Packed.certify], on the lanes): [dist(0)
    = 0]; at [v <> 0], a parent that is a graph neighbour [u] with
    [dist(u) + 1 = dist(v)]; and [dist(u) >= dist(v) − 1] on every
    edge. {e Equivalence} (connected graph): the edge bound and
    [dist(0) = 0] give [dist(v) <= d(v)] along a shortest path; [dist]
    drops by one per parent step, so a parent chain cannot cycle and
    ends at node 0 after [dist(v)] hops, so [d(v) <= dist(v)]; true
    distances satisfy every conjunct. A qcheck property pins it to the
    reference-BFS definition (test_core). *)
module P : Repro_runtime.Protocol.S with type state = state

module Engine : module type of Repro_runtime.Engine.Make (P)

(** The same protocol on a 2-lane register bank ([parent], [dist]), for
    the struct-of-arrays engine (see SCALING.md). [parent_lane] is the
    [parent] lane. *)
module Packed : sig
  include Repro_runtime.Protocol.PACKED with type state = state

  val parent_lane : int
end

module Engine_packed : module type of Repro_runtime.Engine_packed.Make (Packed)
