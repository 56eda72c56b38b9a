(** Silent self-stabilizing shortest-path spanning tree (SPT)
    construction — the weighted sibling of the Section III BFS example,
    covering the shortest-path-tree family the paper lists in its related
    work ([38], [44]).

    Every node maintains [(parent, root, wdist)] where [wdist] is the
    weighted distance to the elected (min-id) root. The proof-labeling
    scheme is the weighted distance labeling: a node rejects iff some
    incident edge [(v,u)] has [wdist(u) + w(u,v) < wdist(v)] (the
    Bellman-Ford optimality certificate); the repair rule relaxes to the
    best neighbor, which is simultaneously the PLS-guided swap
    [e = {v,u}], [f = {v, p(v)}]. Fake roots and parent cycles die by a
    count-to-bound on the hop count, carried alongside the weighted
    distance. O(log n)-bit registers (weights are O(log n) bits), O(n·W)
    convergence where W bounds edge weights. *)

type state = { parent : int; root : int; wdist : int; hops : int }

module P : Repro_runtime.Protocol.S with type state = state

module Engine : module type of Repro_runtime.Engine.Make (P)

(** The same protocol on a 4-lane register bank
    ([parent], [root], [wdist], [hops]), for the struct-of-arrays engine
    (the big-n bench tier; see SCALING.md). *)
module Packed : Repro_runtime.Protocol.PACKED with type state = state

module Engine_packed : module type of Repro_runtime.Engine_packed.Make (Packed)

(** Weighted single-source distances from [src]: Dijkstra with an int
    binary heap over the CSR arrays. It backs the potential ({!potential},
    [watch_phi], round events, the greedy daemons); legality no longer needs
    it. Edge weights must be non-negative. *)
val dijkstra : Repro_graph.Graph.t -> src:int -> int array

(** Global legality ([P.is_legal]): spanning tree rooted at node 0, every
    [root] 0, whose [wdist] fields are the exact weighted distances and
    whose parent edges (graph edges) realize them. [hops] is not
    constrained.

    It is decided by a local certificate in one O(n+m) pass, with no
    reference Dijkstra: the parents pass [Tree.check_parents] for root 0,
    [wdist(0) = 0], every [root = 0], every tree edge is tight
    ([wdist(p) + w(v,p) = wdist(v)], so the parent is a graph neighbor),
    and no edge relaxes ([wdist(u) + w >= wdist(v)], the Bellman-Ford
    certificate above). {e Equivalence} (non-negative weights): tight
    tree edges make [wdist(v)] the weight of a real path, so [wdist(v) >=
    d(v)]; no relaxing edge and [wdist(0) = 0] give [wdist(v) <= d(v)]
    along a shortest path; true distances satisfy every condition. *)
val is_spt : Repro_graph.Graph.t -> state array -> bool

(** The potential [Σ_v |wdist(v) − dist_w(v)|], capped per node. *)
val potential : Repro_graph.Graph.t -> state array -> int
