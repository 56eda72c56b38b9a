(** Rooted spanning trees, encoded as the paper encodes them: every node
    [v] other than the root stores the identity [p(v)] of its parent, and
    the root stores [p(root) = -1] (the paper's ⊥).

    A value of this type is immutable; {!swap} returns a new tree. *)

type t

(** {1 Construction} *)

(** [of_parents ~root parent] validates that [parent] (with
    [parent.(root) = -1]) encodes a tree spanning all of [0..n-1] rooted at
    [root], i.e. that the 1-factor [{(v, p(v))}] is a spanning tree.
    @raise Invalid_argument otherwise. *)
val of_parents : root:int -> int array -> t

(** [of_graph_bfs g ~root] is the BFS spanning tree of [g] from [root].
    @raise Invalid_argument if [g] is disconnected. *)
val of_graph_bfs : Graph.t -> root:int -> t

(** [check_parents ~root parent] is [true] iff {!of_parents} would
    succeed. This is the global legality predicate for the (unconstrained)
    spanning-tree task of Section II-A. *)
val check_parents : root:int -> int array -> bool

(** {1 Accessors} *)

val n : t -> int
val root : t -> int

(** [parent t v] is [p(v)], or [-1] for the root. *)
val parent : t -> int -> int

(** The full parent array (a fresh copy). *)
val parents : t -> int array

(** [children t v] — shared array, do not mutate; sorted increasing. *)
val children : t -> int -> int array

(** [depth t v] is the hop distance from [v] to the root along the tree. *)
val depth : t -> int -> int

(** [size t v] is the number of nodes in the subtree rooted at [v]. *)
val size : t -> int -> int

(** [degree t v] is the degree of [v] in the tree (children + parent). *)
val degree : t -> int -> int

(** Maximum {!degree} over all nodes — the paper's [deg(T)]. *)
val max_degree : t -> int

(** [in_graph t g] — every tree edge is an edge of [g] (a tree decoded
    from arbitrary parent registers need not be a subgraph). *)
val in_graph : t -> Graph.t -> bool

(** [tree_edges t g] are the edges of [t] with weights looked up in [g].
    @raise Not_found if some tree edge is absent from [g]. *)
val tree_edges : t -> Graph.t -> Graph.Edge.t list

(** Total weight of the tree's edges in [g]. *)
val weight : t -> Graph.t -> int

(** [mem_edge t u v] is [true] iff [{u,v}] is a tree edge. *)
val mem_edge : t -> int -> int -> bool

(** [is_ancestor t a v] is [true] iff [a] is an ancestor of [v]
    (reflexively: [is_ancestor t v v = true]). O(1) after preprocessing. *)
val is_ancestor : t -> int -> int -> bool

(** [nca t u v] is the nearest common ancestor of [u] and [v]. *)
val nca : t -> int -> int -> int

(** [path_to_root t v] is [v; p(v); ...; root]. *)
val path_to_root : t -> int -> int list

(** [tree_path t u v] is the unique tree path from [u] to [v], inclusive. *)
val tree_path : t -> int -> int -> int list

(** [pre t v] and [post t v]: DFS pre/post numbers of the tree (children
    visited in increasing order), used by interval ancestry labels. *)
val pre : t -> int -> int

val post : t -> int -> int

(** {1 Fundamental cycles and swaps} *)

(** [fundamental_cycle t ~e:(x,y)] for a non-tree pair [{x,y}] is the list
    of nodes on the tree path from [x] to [y] (the cycle [T + e] minus the
    edge [e] itself).
    @raise Invalid_argument if [{x,y}] is a tree edge or [x = y]. *)
val fundamental_cycle : t -> e:(int * int) -> int list

(** [swap t ~add:(x,y) ~remove:(a,b)] is the spanning tree
    [T + {x,y} - {a,b}]: [{a,b}] must be a tree edge, [{x,y}] must not be,
    and [{a,b}] must lie on the fundamental cycle of [{x,y}] (equivalently,
    [x] and [y] must be separated by removing [{a,b}]). The root is
    preserved.
    @raise Invalid_argument if the preconditions fail. *)
val swap : t -> add:(int * int) -> remove:(int * int) -> t

(** All spanning trees differ only in their parent encoding; structural
    equality of edge sets. *)
val same_edges : t -> t -> bool

val pp : Format.formatter -> t -> unit
