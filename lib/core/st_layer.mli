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

    The layer's register is three int lanes — 0 = [parent], 1 = [root],
    2 = [dist] — shared by every packed protocol that embeds it (see
    SCALING.md). *)

val words : int

val pack : t -> int array
val unpack : int array -> t

(** [step ~get:Fun.id] on the flat bank: same guard, same tie-breaking,
    writing the packed move into [pv.move] (the {!Repro_runtime.Protocol.PACKED}
    convention). Equivalence with {!step} is a qcheck property. *)
val step_packed : Repro_runtime.Pview.t -> keep_shape:bool -> bool

(** [is_legal g sts] — global legality of the layer: the parents form a
    spanning tree rooted at node 0 (the min id), every [root] is 0, and
    [dist] is the tree depth. Parents need not be graph neighbors.

    It is decided by a local certificate in one O(n) pass: [parent(0) =
    -1], [dist(0) = 0], every [root = 0], and for [v <> 0],
    [0 <= parent(v) < n] with [dist(v) = dist(parent(v)) + 1].
    {e Equivalence:} [dist] drops by exactly one per parent step, so no
    parent chain can cycle and each must stop at the only node without an
    in-range parent, node 0, whose [dist] is 0 — so the chains form a
    tree rooted at 0 and [dist] counts the steps, i.e. the depth; the
    converse is immediate. *)
val is_legal : Repro_graph.Graph.t -> t array -> bool

(** [tree_of g sts] — the encoded tree, when legal. *)
val tree_of : Repro_graph.Graph.t -> t array -> Repro_graph.Tree.t option
