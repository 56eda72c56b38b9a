(** Simple connected undirected edge-weighted graphs.

    This is the network model of the paper (Section II-A): nodes are
    [0 .. n-1]; every node has a distinct, incorruptible identity and knows
    the (distinct, incorruptible) weights of its incident edges.

    Weights are [int]s. The paper assumes pairwise-distinct weights
    (w.l.o.g., citing Gallager–Humblet–Spira); every comparison in this
    repository goes through {!Edge.compare}, which breaks residual ties by
    endpoints, so even graphs built with duplicate raw weights behave as if
    the weights were distinct. *)

module Edge : sig
  (** An undirected weighted edge, normalized so that [u < v]. *)
  type t = private { u : int; v : int; w : int }

  (** [make u v w] builds a normalized edge. @raise Invalid_argument on a
      self-loop. *)
  val make : int -> int -> int -> t

  (** Total order by [(w, u, v)]: weight first, ties broken by endpoints.
      This realizes the paper's "all weights pairwise distinct" assumption. *)
  val compare : t -> t -> int

  val equal : t -> t -> bool

  (** [other e x] is the endpoint of [e] that is not [x].
      @raise Invalid_argument if [x] is not an endpoint. *)
  val other : t -> int -> int

  (** [mem e x] is [true] iff [x] is an endpoint of [e]. *)
  val mem : t -> int -> bool

  val pp : Format.formatter -> t -> unit
end

type t

(** {1 Construction} *)

(** [of_edge_array n edges] builds a graph on nodes [0..n-1] whose
    {!edges} are [edges] in the given order. The array is kept, not
    copied: do not mutate it afterwards.

    Cost: O(n + m) time and a few flat int arrays of length n or 2m. No
    comparison sort and no hash table: the CSR rows are filled in edge
    order, then sorted by one symmetric transpose, which also brings
    duplicates next to each other. No [(neighbor, weight)] pair is boxed
    until {!neighbors} asks for its row.

    @raise Invalid_argument if [n <= 0], on an endpoint outside
    [0..n-1], or on a duplicate (parallel) edge. When several edges
    offend, the first one in edge order decides the message: an
    out-of-range edge is reported only if no edge before it duplicates
    an earlier one. *)
val of_edge_array : int -> Edge.t array -> t

(** [of_edges n edges] is {!of_edge_array} on the normalized edges, in
    list order. Self-loops are checked first, over the whole list.
    @raise Invalid_argument on self-loops and as {!of_edge_array}. *)
val of_edges : int -> (int * int * int) list -> t

(** Same as {!of_edge_array} from a list. *)
val of_edge_list : int -> Edge.t list -> t

(** {1 Incremental edits}

    The churn path of service mode (lib/service): each edit returns a
    fresh graph and leaves the old one intact. Every edit, node joins
    and leaves included, computes only the rows it touches and copies
    every other row verbatim into a fresh CSR in one O(n+m) pass (a
    reweight keeps the CSR shape and copies only the weights). No edit
    re-checks the untouched edges or re-sorts a row, as a from-scratch
    {!of_edge_array} would. Rows already boxed by {!neighbors} are shared
    with the old graph when untouched. The
    result is guaranteed byte-identical — [edges] order, every
    {!neighbors} row, [csr_row] / [csr_col] / [csr_wgt], [total_weight]
    — to {!of_edges} applied from scratch to the edited edge set with
    adds appended last, deletes filtered out in place and a leave's
    renamed edges kept at their old positions (pinned by a qcheck
    property in test_graph). Edits never check connectivity;
    callers that need a connected result (the service layer does) must
    validate first — see [Topology.check].

    All edits raise [Invalid_argument] with a descriptive message on
    out-of-range endpoints, self-loops, duplicate edges, or absent
    edges. *)

(** [add_edge g u v w] inserts the edge [{u,v}] with weight [w].
    @raise Invalid_argument if the edge already exists. *)
val add_edge : t -> int -> int -> int -> t

(** [remove_edge g u v] deletes the edge [{u,v}].
    @raise Invalid_argument if the edge is absent. *)
val remove_edge : t -> int -> int -> t

(** [reweight_edge g u v w] sets the weight of existing edge [{u,v}] to
    [w]. @raise Invalid_argument if the edge is absent. *)
val reweight_edge : t -> int -> int -> int -> t

(** [add_node g anchors] adds node [n g] (ids stay contiguous) attached
    by one edge [(anchor, weight)] per list element.
    @raise Invalid_argument on an empty anchor list, out-of-range or
    duplicate anchors. *)
val add_node : t -> (int * int) list -> t

(** [remove_node g v] deletes node [v] and its incident edges,
    swap-renaming the highest id [n g - 1] to [v] so ids stay
    contiguous ([v = n g - 1] deletes cleanly with no rename).
    @raise Invalid_argument on the last remaining node. *)
val remove_node : t -> int -> t

(** {1 Accessors} *)

(** Number of nodes. *)
val n : t -> int

(** Number of edges. *)
val m : t -> int

(** All edges, in unspecified but fixed order. The returned array is fresh. *)
val edges : t -> Edge.t array

(** [neighbors g v] is the array of [(neighbor, weight)] pairs of [v], in
    increasing neighbor order. The first call for [v] boxes the row from
    the CSR arrays (O(degree)); later calls return the same array. The
    returned array is shared: do not mutate. *)
val neighbors : t -> int -> (int * int) array

(** [degree g v] is the number of neighbors of [v] in [g]. *)
val degree : t -> int -> int

(** {2 CSR adjacency}

    The adjacency as stored: three flat arrays in compressed-sparse-row
    form. Node [v]'s neighbors are
    [csr_col g].(i) for [i] in [(csr_row g).(v) .. (csr_row g).(v+1) - 1],
    in increasing neighbor order, with the edge weight aligned at
    [(csr_wgt g).(i)]. {!neighbors}, {!degree} and the edge lookups read
    them; the flat layout is what the packed engine scans (see
    SCALING.md). The returned arrays are shared: do not mutate. *)

(** Row-pointer array of length [n+1]. *)
val csr_row : t -> int array

(** Column (neighbor id) array of length [2m]. *)
val csr_col : t -> int array

(** Weight array aligned with {!csr_col}. *)
val csr_wgt : t -> int array

(** Maximum degree over all nodes. *)
val max_degree : t -> int

(** [has_edge g u v] tests adjacency: a binary search in [u]'s CSR row,
    O(log (degree g u)), as are {!weight} and {!find_edge}. *)
val has_edge : t -> int -> int -> bool

(** [weight g u v] is the weight of edge [{u,v}].
    @raise Not_found if the edge is absent. *)
val weight : t -> int -> int -> int

(** [find_edge g u v] is the normalized edge between [u] and [v], if any. *)
val find_edge : t -> int -> int -> Edge.t option

(** [fold_edges f init g] folds over all edges. *)
val fold_edges : (Edge.t -> 'a -> 'a) -> 'a -> t -> 'a

(** [iter_edges f g] iterates over all edges. *)
val iter_edges : (Edge.t -> unit) -> t -> unit

(** Total weight of all edges. Precomputed at construction (O(1)):
    builders query it per node when initializing adversarial states. *)
val total_weight : t -> int

(** [distinct_weights g] is [true] iff all raw weights are pairwise
    distinct. (Not required — see {!Edge.compare} — but generators
    guarantee it.) *)
val distinct_weights : t -> bool

val pp : Format.formatter -> t -> unit
