(** The committed label snapshot: service mode's read path.

    At every legal configuration the service driver flattens the
    builder's parent links into preallocated int arrays — depth, root,
    tree degree, the DFS interval of {!Repro_labels.Interval_labels}
    and the heavy-path head that powers
    {!Repro_labels.Nca_labels}-style NCA computation — so that during
    re-stabilization every read is answered from the last {e committed}
    tree in O(1) ({!parent}, {!root}, {!degree}), two integer compares
    ({!is_ancestor}) or O(log n) ({!nca}, {!route_length}), never by
    chasing live parent pointers.

    {b Layout.} A buffer keeps one 4-word record per node [v], the
    words [4v .. 4v+3] of one int array: the heavy-path [head], then
    three pairs — ([depth] of the head, [parent] of the head), ([pre],
    [post]) and ([root], [depth]). One heavy-path climb step reads one
    record, and {!answer} climbs once for all its facets. The parent
    links (verbatim) and the tree degrees keep an array each, so a
    buffer holds 6 words per node. A pair is two 31-bit signed fields
    in one word, the encoding of [St_layer.pair]. Every field lies in
    [[-1, n)], and a root candidate's parent of head is [-1], never its
    raw link; so a commit needs [n < 2^30] and raises
    [Invalid_argument] otherwise. It never clamps.

    {b Double buffering.} A store holds two buffers. Reads always hit
    the front buffer; {!commit} rebuilds the back buffer from the given
    parent array and swaps the two only when the rebuild is complete,
    so reads issued while a commit is in flight are served from the
    previous committed snapshot — the staleness window the service
    layer measures, made safe by construction. Buffers grow by doubling
    and are reused across commits: past the episode's peak node count a
    commit allocates nothing. The rebuild's seven scratch arrays (7
    words per node) belong to the store, not to a buffer, since only
    the back buffer is ever being rebuilt: a store whose buffers have
    both grown holds 19 words per node.

    {b Degraded commits.} The service driver also commits the live
    configuration when a recovery fails (the degraded-but-alive
    regime), so {!commit} accepts {e arbitrary} parent arrays: links
    that are out of range, self-loops, or members of parent cycles
    simply mark their nodes unreachable. Such nodes answer
    [root = -1], [is_ancestor = false] and [nca = route_length = -1] —
    the same verdicts the pre-snapshot bounded parent-chase produced. *)

type t

(** [create ()] — an empty store; no query is meaningful before the
    first {!commit}. [cap] preallocates buffer capacity. *)
val create : ?cap:int -> unit -> t

(** [commit t parents] — flatten [parents] into the back buffer and
    swap it to the front. O(n); allocation-free once the buffers have
    grown to [Array.length parents].
    @raise Invalid_argument if [Array.length parents >= 2^30]. *)
val commit : t -> int array -> unit

(** Whether a commit has happened. *)
val ready : t -> bool

(** Node count of the committed snapshot. *)
val n : t -> int

(** Committed parent link of [v], verbatim. O(1). *)
val parent : t -> int -> int

(** Root of the committed tree containing [v]; [-1] if [v]'s parent
    chain cycles instead of reaching a root. O(1). *)
val root : t -> int -> int

(** Tree degree of [v] in the committed links (children + valid
    parent). O(1). *)
val degree : t -> int -> int

(** Hops from [v] to its root; [-1] when [root] is [-1]. O(1). *)
val depth : t -> int -> int

(** The topmost node of [v]'s heavy path in the committed tree (word 0
    of [v]'s record); [-1] when [root] is [-1]. The heavy child of a
    node is its child with the largest subtree, ties broken by the
    smallest id — the rule of {!Repro_labels.Heavy_path}, whose
    light-edge bound makes {!nca} O(log n). O(1). *)
val head : t -> int -> int

(** [is_ancestor t a v] — [a] lies on the committed tree path from [v]
    to its root (reflexive). Two integer compares on the DFS interval
    after a same-tree guard. *)
val is_ancestor : t -> int -> int -> bool

(** [nca t u v] — nearest common ancestor in the committed tree, or
    [-1] when [u] and [v] sit in different trees (or dangle off a
    cycle). O(log n) heavy-path head climbs. *)
val nca : t -> int -> int -> int

(** [route_length t u v] — length of the committed tree path between
    [u] and [v] ([depth u + depth v - 2 depth (nca u v)]), or [-1] when
    {!nca} is undefined. O(log n). *)
val route_length : t -> int -> int -> int

(** The service read: every facet of one [(v, u)] query, compared
    structurally by the staleness accounting. *)
type answer = {
  a_parent : int;
  a_root : int;
  a_degree : int;
  a_ancestor : bool;  (** is [u] an ancestor of [v]? *)
  a_nca : int;  (** nca of [u] and [v] *)
  a_route : int;  (** tree-path length between [u] and [v] *)
}

val answer : t -> v:int -> u:int -> answer
