(** Sequential graph traversals: BFS, DFS, connectivity, diameter.

    These are the reference computations the self-stabilizing algorithms
    are validated against (e.g. the BFS builder of Section III must
    stabilize on the hop distances computed here). *)

(** [bfs_distances g ~src] is the array of hop distances from [src];
    unreachable nodes get [max_int]. *)
val bfs_distances : Graph.t -> src:int -> int array

(** [hop_distances g sources] — hop distances to the nearest source, by
    one BFS from all of them ([max_int] when unreachable). *)
val hop_distances : Graph.t -> int list -> int array

(** [bfs_tree g ~src] is a parent array of a BFS tree rooted at [src]:
    [parent.(src) = -1]; unreachable nodes get [-2]. *)
val bfs_tree : Graph.t -> src:int -> int array

(** [dfs_order g ~src] is [(pre, post)]: DFS preorder and postorder
    numbers (0-based); unreachable nodes get [-1] in both. *)
val dfs_order : Graph.t -> src:int -> int array * int array

(** [components g] is [(count, comp)] where [comp.(v)] is the component
    index of [v] (indices are [0 .. count-1]). *)
val components : Graph.t -> int * int array

(** [is_connected g] is [components g] having one component, computed
    by a single O(n+m) BFS over the CSR arrays (it is on the churn path,
    see [Topology.check]). *)
val is_connected : Graph.t -> bool

(** Exact diameter (max eccentricity) by running BFS from every node.
    @raise Invalid_argument if the graph is disconnected. *)
val diameter : Graph.t -> int

(** [eccentricity g v] is the max hop distance from [v].
    @raise Invalid_argument if the graph is disconnected. *)
val eccentricity : Graph.t -> int -> int
