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

(** The same protocol on a 3-lane register bank, for the
    struct-of-arrays engine (the big-n bench tier; see SCALING.md):
    lane 0 = [parent] ([parent_lane]), lane 1 = ([root], [hops]) as one
    {!St_layer.pair}, lane 2 = [wdist].

    {e Range.} [root] and [hops] share a lane as two 31-bit signed
    fields. Every value a run can reach lies in [[-2^16, n + 2^16]]:
    [random_state] draws both in [[0, n]]; a move copies a neighbour's
    [root], writes its own id, or adds 1 to [hops] under the TTL bound
    [hops + 1 <= n - 1]; and a {!Repro_runtime.Fault.bitflip} toggles
    one of the low 16 bits. So every reachable register fits for [n <
    2^29]. [wdist] keeps a whole lane: an adversarial start plus edge
    sums can exceed [2^30]. [pack] raises [Invalid_argument] when
    [root] or [hops] is out of range; it never clamps. *)
module Packed : sig
  include Repro_runtime.Protocol.PACKED with type state = state

  val parent_lane : int
end

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
    along a shortest path; true distances satisfy every condition.

    {b On the lanes} ([Packed.certify], [Packed.certify_tree]; the boxed
    predicate packs and calls them). Every condition but the parents'
    acyclicity is a per-node conjunct at [v], reading [v]'s lanes, its
    neighbours' [wdist] and the edge weights, plus [0 <= wdist(v) <=
    W] with [W] the total weight (it keeps the edge sums from
    overflowing). [Tree.check_parents] stays a full pass: with
    zero-weight edges, tight edges alone do not exclude a parent
    cycle. The bound is the one conjunct that reads a global input
    other than [n]; a change of [W] cannot flip it at a node whose
    other inputs are unchanged unless the whole certificate fails
    elsewhere: when every other conjunct holds everywhere, [wdist] is
    the true distance, which is at most [W]. So after an edit a
    re-check of the per-node conjunct near the edit, plus the tree
    pass, decides legality exactly. *)
val is_spt : Repro_graph.Graph.t -> state array -> bool

(** The potential [Σ_v |wdist(v) − dist_w(v)|], capped per node. *)
val potential : Repro_graph.Graph.t -> state array -> int
