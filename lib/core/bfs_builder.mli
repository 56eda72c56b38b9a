(** Silent self-stabilizing BFS spanning tree construction — the worked
    example of Section III.

    The family [F] is the BFS trees of [G] rooted at the elected (min-id)
    root. The proof-labeling scheme is the distance labeling itself: a
    node rejects iff some graph neighbor carries a distance smaller than
    its own minus one. The potential is
    [φ(T) = Σ_u |d(u) − dist_G(u, r)|]; a rejection at [u] caused by
    neighbor [v] identifies the swap [e = {u,v}], [f = {u, p(u)}], and
    re-parenting [u] onto [v] strictly decreases [φ] — the layer rule of
    [St_layer] with [keep_shape:false] is exactly this PLS-guided local
    search, executed at every violating node.

    Registers: [(parent, root, dist)] = O(log n) bits — space optimal.
    Rounds: O(n) under the unfair daemon (experiment E5). *)

module P : Repro_runtime.Protocol.S with type state = St_layer.t

module Engine : module type of Repro_runtime.Engine.Make (P)

(** The same protocol with the 2-lane {!St_layer} codec, for the
    struct-of-arrays engine (the big-n bench tier; see SCALING.md).
    [parent_lane] is the [parent] lane. *)
module Packed : sig
  include Repro_runtime.Protocol.PACKED with type state = St_layer.t

  val parent_lane : int
end

module Engine_packed : module type of Repro_runtime.Engine_packed.Make (Packed)

(** The Section III potential [Σ_u |d(u) − dist_G(u, 0)|], computed from
    the registers (illegal structures contribute the [n]-capped
    defect). *)
val potential : Repro_graph.Graph.t -> St_layer.t array -> int

(** The BFS-ness verifier at one node (the PLS of Section III): no graph
    neighbor may be more than one hop closer to the root. *)
val verify : St_layer.t Repro_runtime.View.t -> bool

(** [is_bfs_tree g sts] — global legality: a spanning tree rooted at the
    min-id node with [dist] equal to the true graph distances.

    It is decided by a local certificate in one O(n+m) pass, with no
    reference BFS: at every node [v], {!St_layer.certify} (the layer's
    own conjunct), [dist(u) >= dist(v) − 1] on every edge [{u,v}] (the
    {!verify} PLS), and a graph neighbor with [dist(v) − 1] when [v <>
    0] — a conjunction of per-node predicates reading [v]'s closed
    neighbourhood, its parent and [n], which [Packed.certify] decides
    on the lanes (the boxed predicate packs and calls it).
    {e Equivalence:} the edge bound and [dist(0) = 0] give [dist(v) <=
    d(v)] along a shortest path; following closer neighbors from [v]
    reaches a [dist]-0 node, which the layer pins to node 0, in [dist(v)]
    hops, so [d(v) <= dist(v)]; true distances satisfy both conditions.
    As before, parents need not be graph neighbors. *)
val is_bfs_tree : Repro_graph.Graph.t -> St_layer.t array -> bool
