(** The rooted-spanning-tree layer: silent self-stabilizing leader
    election + tree maintenance, the "Instruction 1" of Algorithms 1-3
    (the paper points to Datta–Larmore–Vemula for this building block).

    Every node keeps [(parent, root, dist)]. Legal configurations: the
    parent pointers form a spanning tree rooted at the minimum-id node,
    every [root] field names it, and [dist] is the hop distance to it in
    the tree. Convergence from arbitrary states follows the classic
    pattern: syntactically broken states reset to self-root; strictly
    smaller roots are joined; distances repair along parents and
    count-to-[n] kills parent cycles and orphaned root claims.

    The layer comes in two shapes:
    - [keep_shape:false] — additionally joins a same-root neighbor at a
      smaller distance, which makes the stable tree a {e BFS} tree (used
      by [Bfs_builder]);
    - [keep_shape:true] — joins only strictly smaller roots, so the
      stable tree keeps whatever shape upper layers (MST/MDST
      improvement) give it, repairing distances but not edges. *)

type t = { parent : int; root : int; dist : int }

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val size_bits : int -> t -> int

(** Rule tag for a layer transition, for [Protocol.S.classify]:
    ["reset"] (became its own root), ["join-root"] (adopted a new root),
    ["reparent"] (changed parent inside the same root's tree) or
    ["dist"] (distance repair only). *)
val classify : t -> t -> string

(** A node's boot state: its own one-node tree. *)
val self_root : int -> t

val random : Random.State.t -> n:int -> t

(** One layer step. [get] projects the layer's fields out of the full
    protocol state. [None] = the layer is quiescent at this node. *)
val step : 'a Repro_runtime.View.t -> get:('a -> t) -> keep_shape:bool -> t option

(** [valid view ~get] — the layer's local consistency predicate (the
    guard that must hold before higher layers may act at this node). *)
val valid : 'a Repro_runtime.View.t -> get:('a -> t) -> bool

(** {2 Packed representation}

    The layer's register is two int lanes — 0 = [parent], 1 = the pair
    ([root], [dist]) — so a guard reads everything it needs from a
    neighbour in one word (see SCALING.md). A pair holds two 31-bit
    signed fields, each in [[-2^30, 2^30)].

    {e Range.} Every field a run can reach lies in [[-2^16, n + 2^16]]:
    [random] draws [root] and [dist] in [[0, n]]; a move copies a
    neighbour's field, writes its own id, or adds 1 under the TTL bound
    [dist + 1 <= n - 1]; and a {!Repro_runtime.Fault.bitflip} toggles
    one of the low 16 bits. So every reachable register fits for
    [n < 2^29]. [pack] raises [Invalid_argument] on a register outside
    the range; it never clamps. *)

(** [fits x] — [x] fits a 31-bit signed pair field. *)
val fits : int -> bool

(** [pair hi lo] packs two fields that {!fits} into one lane. The lane
    orders like the pair, lexicographically, and is negative iff [hi]
    is. *)
val pair : int -> int -> int

(** The fields of a {!pair}. *)
val hi : int -> int

val lo : int -> int

val words : int

(** @raise Invalid_argument if [root] or [dist] does not {!fits}. *)
val pack : t -> int array

val unpack : int array -> t

(** [step ~get:Fun.id ~keep_shape:false] (the BFS shape, the only
    packed one) on the flat bank: same guard, same tie-breaking,
    writing the packed move into [pv.move] (the {!Repro_runtime.Protocol.PACKED}
    convention). Equivalence with {!step} is a qcheck property. *)
val step_packed : Repro_runtime.Pview.t -> bool

(** [is_legal g sts] — global legality of the layer: the parents form a
    spanning tree rooted at node 0 (the min id), every [root] is 0, and
    [dist] is the tree depth. Parents need not be graph neighbors.

    It is decided by a local certificate in one O(n) pass, {!certify} at
    every node: [parent(0) = -1], [dist(0) = 0], every [root = 0], and
    for [v <> 0], [0 <= parent(v) < n] with [dist(v) =
    dist(parent(v)) + 1].
    {e Equivalence:} [dist] drops by exactly one per parent step, so no
    parent chain can cycle and each must stop at the only node without an
    in-range parent, node 0, whose [dist] is 0 — so the chains form a
    tree rooted at 0 and [dist] counts the steps, i.e. the depth; the
    converse is immediate. *)
val is_legal : Repro_graph.Graph.t -> t array -> bool

(** [certify g bank v] — the layer's conjunct at node [v] on the packed
    lanes (0 = parent, 1 = (root, dist)): it reads [v]'s lanes, its
    parent's [dist] and [n] ({!Repro_runtime.Protocol.PACKED.certify}). *)
val certify : Repro_graph.Graph.t -> int array array -> int -> bool

(** [certified ~certify g sts] — the boxed legality predicate of a
    builder whose register is this layer's: [sts] packs and every node
    passes [certify]. A register {!pack} rejects is not legal (legality
    pins [root] to 0 and [dist] to [[0, n)]). *)
val certified :
  certify:(Repro_graph.Graph.t -> int array array -> int -> bool) ->
  Repro_graph.Graph.t ->
  t array ->
  bool

(** [n_sensitive ~n ~n' bank u] — [u]'s dist lane passes the guards'
    TTL test [dist + 1 <= n - 1] under one node count and fails it under
    the other ({!Repro_runtime.Protocol.PACKED.n_sensitive}); the test
    is the only way the layer's guards read [n]. *)
val n_sensitive : n:int -> n':int -> int array array -> int -> bool

(** [tree_of g sts] — the encoded tree, when legal. *)
val tree_of : Repro_graph.Graph.t -> t array -> Repro_graph.Tree.t option
