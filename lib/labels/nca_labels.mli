(** Nearest-common-ancestor labels (Section V; Alstrup–Gavoille–Kaplan–
    Rauhe style, heavy-path based).

    The label of [v] is the sequence of [(head, pos)] pairs describing
    the root→v walk through the heavy-path decomposition: one pair per
    heavy path crossed, where [head] is the id of the path's top node and
    [pos] the position at which the walk leaves the path (for the last
    pair: [v]'s own position). Since a root-to-node path crosses at most
    ⌈log₂ n⌉ light edges, labels hold O(log n) pairs — O(log² n) bits in
    this uncompressed form ([6] compresses to O(log n) bits with
    alphabetic codes; we report measured sizes in experiment E4).

    Crucially, [nca] {e computes the label of the nearest common
    ancestor} from two labels alone, which is what the paper uses to let
    every node decide membership in a fundamental cycle locally
    ({!on_cycle}). *)

type label

(** Pairwise equality, without polymorphic [(=)]. *)
val equal : label -> label -> bool

val pp : Format.formatter -> label -> unit

(** The total order of polymorphic [compare] on the raw [(head, pos)]
    pair arrays, computed with int comparisons: a shorter label comes
    first; labels of equal length compare pair by pair, head first, then
    position. The MST builder breaks ties between candidate edges of the
    same level and weight with this order ([Mst_builder]'s [compare_cand]
    compares the endpoint labels last), so the agreed candidate — and
    with it every run's trajectory — depends on it staying exactly this
    order. *)
val compare : label -> label -> int

(** Number of [(head, pos)] pairs. *)
val length : label -> int

(** Bits for this label in an [n]-node network. *)
val size_bits : int -> label -> int

(** [prover t] computes all labels. *)
val prover : Repro_graph.Tree.t -> label array

(** The root's label: [[(root, 0)]]. *)
val of_root : int -> label

(** [of_pairs a] builds a label from raw [(head, pos)] pairs — intended
    for fault injection and tests (arbitrary register contents), not for
    normal construction. *)
val of_pairs : (int * int) array -> label

(** The raw [(head, pos)] pairs, as a fresh array — the inverse of
    {!of_pairs}, used by the register codecs (see SCALING.md). *)
val to_pairs : label -> (int * int) array

(** [extend_heavy l] — label of the heavy child of a node labeled [l]. *)
val extend_heavy : label -> label

(** [extend_light l ~child] — label of a light child. *)
val extend_light : label -> child:int -> label

(** [nca a b] is the label of the nearest common ancestor of the two
    labeled nodes (both labels must come from the same labeling). *)
val nca : label -> label -> label

(** [is_nca x u v] — [equal x (nca u v)], decided without building the
    NCA label. *)
val is_nca : label -> label -> label -> bool

(** [is_ancestor a v] — [nca a v = a], decided without building the NCA
    label. *)
val is_ancestor : label -> label -> bool

(** [on_cycle ~x ~u ~v] implements the paper's membership test for the
    fundamental cycle of a non-tree edge [{u,v}]:
    [x ∈ C] iff [nca(x,u) = x ∧ nca(x,v) = w] or
    [nca(x,u) = w ∧ nca(x,v) = x], where [w = nca(u,v)]. No NCA label
    is built: every equality is decided on the operands' pairs. *)
val on_cycle : x:label -> u:label -> v:label -> bool

(** [resolve t l] — the node carrying label [l] in the labeling of [t]
    (test helper). @raise Not_found if absent. *)
val resolve : Repro_graph.Tree.t -> label -> int
