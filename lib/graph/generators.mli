(** Deterministic pseudo-random and structured graph generators.

    All generators produce simple connected graphs with pairwise-distinct
    edge weights (a random permutation of [1..m] unless stated otherwise),
    matching the paper's model assumptions. Randomized generators are
    driven by an explicit [Random.State.t] so every experiment is
    reproducible from its seed.

    Costs are stated for a result with [n] nodes and [m] edges. Every
    generator ends in {!Graph.of_edge_array}, O(n + m), after drawing
    the [m - 1] weight-shuffle integers. *)

(** [gnp st ~n ~p] is an Erdős–Rényi graph conditioned on connectivity:
    edges are kept with probability [p], then any disconnected components
    are stitched with uniformly random cross edges. Cost: O(n²) coin
    flips, then O(n + m) expected for the stitching. *)
val gnp : Random.State.t -> n:int -> p:float -> Graph.t

(** [random_connected st ~n ~m] is a uniform random spanning tree
    (Prüfer) plus distinct random extra edges, [min (max m (n-1))
    (n(n-1)/2)] edges in all: the count is clamped at the complete
    graph. Cost: O(n + m) expected while [m] stays below a constant
    fraction of n(n-1)/2 (each extra edge is a rejection-sampled pair);
    near the clamp the draws grow like a coupon collector's,
    O(n² log n). *)
val random_connected : Random.State.t -> n:int -> m:int -> Graph.t

(** [geometric st ~n ~radius] is a random geometric graph on the unit
    square (the sensor-network topology of the paper's MDST motivation),
    stitched to connectivity like {!gnp}. Cost: O(n²) distance tests. *)
val geometric : Random.State.t -> n:int -> radius:float -> Graph.t

(** [grid st ~rows ~cols] is the [rows × cols] grid. Cost: O(n). *)
val grid : Random.State.t -> rows:int -> cols:int -> Graph.t

(** [torus st ~rows ~cols] is the grid with wraparound edges;
    requires [rows >= 3] and [cols >= 3] to stay simple. Cost: O(n). *)
val torus : Random.State.t -> rows:int -> cols:int -> Graph.t

(** [ring st ~n] is the cycle on [n >= 3] nodes. Cost: O(n). *)
val ring : Random.State.t -> n:int -> Graph.t

(** [path st ~n] is the path on [n] nodes. Cost: O(n). *)
val path : Random.State.t -> n:int -> Graph.t

(** [star st ~n] is the star with center [0]. Cost: O(n). *)
val star : Random.State.t -> n:int -> Graph.t

(** [complete st ~n] is K_n. Cost: O(n²). *)
val complete : Random.State.t -> n:int -> Graph.t

(** [hypercube st ~dim] is the [dim]-dimensional hypercube (2^dim
    nodes). Cost: O(n log n). *)
val hypercube : Random.State.t -> dim:int -> Graph.t

(** [lollipop st ~clique ~tail] is K_[clique] with a path of [tail] nodes
    attached — a classic hard case for tree-degree heuristics. Cost:
    O(clique² + tail).
    @raise Invalid_argument if [clique < 2] or [tail < 0]. *)
val lollipop : Random.State.t -> clique:int -> tail:int -> Graph.t

(** [caterpillar st ~spine ~legs] is a spine path where every spine node
    carries [legs] pendant leaves — worst-case degree spread for MDST.
    Cost: O(n). *)
val caterpillar : Random.State.t -> spine:int -> legs:int -> Graph.t

(** [random_tree st ~n] is a uniform random labeled tree (Prüfer, decoded
    in linear time). Cost: O(n). *)
val random_tree : Random.State.t -> n:int -> Graph.t

(** [barabasi_albert st ~n ~m0] — preferential attachment: each new node
    attaches to [m0] existing nodes sampled proportionally to degree.
    Produces the hub-heavy topologies that stress minimum-degree
    spanning-tree constructions. Cost: O(n · m0) expected (sampling
    gives up after [100 · m0] draws per node and completes the
    attachment deterministically). *)
val barabasi_albert : Random.State.t -> n:int -> m0:int -> Graph.t

(** Named generator lookup for the CLI and benches, one entry per
    {!all_names} element:
    ["gnp"; "dense"; "geometric"; "grid"; "torus"; "ring"; "path";
    "star"; "complete"; "hypercube"; "lollipop"; "caterpillar"; "random";
    "tree"; "scale-free"]. The size parameter is interpreted per family
    ("dense" is gnp with p = 1/2, "random" is {!random_connected} with
    m = 2n, "scale-free" is {!barabasi_albert} with m0 = 2). *)
val by_name : string -> (Random.State.t -> n:int -> Graph.t) option

val all_names : string list
