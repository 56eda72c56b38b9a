(** Silent self-stabilizing MST construction — the paper's Algorithm 2
    (a PLS-guided version of Borůvka's algorithm, Section VI), with the
    space-optimal O(log² n)-bit registers of Corollary 6.1.

    The register of every node stacks the following layers, each a local
    fixpoint rule; a rule may fire only when all lower layers are
    quiescent at the node (collateral composition):

    + {b tree} — [St_layer] with [keep_shape:true]: leader election +
      parent/dist maintenance, never reshaping a consistent tree;
    + {b switch hand-off} — the loop-free chain of local switches of
      Figure 1a, shared with MDST ({!Local_search});
    + {b labels} — subtree size, designated heavy child, NCA sequence
      (Section V; shared), and the Borůvka-trace fragment labels of Section VI
      ([Fragment_labels]' entries recomputed as local fixpoints with the
      fdist/odist certification chains);
    + {b candidate} — every node whose labels are locally quiescent
      publishes its lightest violating incident edge [(level, e)] (an
      incident graph edge leaving its level-[i] fragment and lighter than
      the fragment's selected tree edge); a hop-bounded aggregate
      ([Aggregate]) agrees on the global minimum;
    + {b cut} — nodes on the fundamental cycle of the agreed [e]
      (membership decided from NCA labels, as in Section V) publish their
      parent edge; the aggregate keeps the {e heaviest} (Tarjan's red
      rule), together with its child endpoint and that endpoint's NCA
      label;
    + {b initiation} — the endpoint of [e] inside the detached subtree
      starts the switch chain.

    Safety hardening for arbitrary initial configurations: flips and
    initiations only ever re-parent onto a same-root neighbor within the
    distance TTL (cross-tree moves belong to the election layer);
    initiation additionally checks Tarjan's red-rule inequality
    [w(e) < w(f)] from the carried session data, so every completed
    session replaces a tree edge by a strictly lighter edge — the total
    tree weight strictly decreases, [φ] of Section VI and the tree weight
    both act as potentials, and the system converges to the unique MST
    and falls silent. Token hygiene is {!Local_search}'s; the agreement
    that backs a token is the cut aggregate.

    {b Guard cost.} One guard evaluation runs the rules above in order
    until one fires, so at a quiescent node it runs all of them. Each
    works on the view's arrays with int comparisons (the shared layer
    reads the register through {!Local_search.REGISTER}'s accessors):
    the tree neighbors' view indices are collected once per trace computation,
    the trace folds read the neighbors' entries in place, a candidate
    record is built only when it beats the current best, the NCA tests
    compare against the NCA without building it, and the aggregates
    fold over the neighbor array through a projection. At a fixpoint
    the trace rule returns the register's own label, so checking it
    allocates nothing. [P.size_bits] computes the three field widths
    once per register. Measured on a stabilized n = 64 configuration
    ([bench/main.exe micro], [mst-step-silent-node]), a full guard
    costs ≈1 µs; PERFORMANCE.md ("MST guard kernels") has the per-rule
    breakdown. The kernels are pinned, on arbitrary registers and along
    runs, to the earlier list- and tuple-based ones (test_core) and to
    the builder before the shared layer (test_oracle). *)

module E = Repro_graph.Graph.Edge

type cand = { lvl : int; e : E.t; su : Repro_labels.Nca_labels.label; sv : Repro_labels.Nca_labels.label }

type cut = {
  cand : cand;
  f : E.t;
  f_child : int;
  f_child_seq : Repro_labels.Nca_labels.label;
}

type session = cut Local_search.session

type state = {
  st : St_layer.t;
  size : int;
  heavy : int;  (** designated heavy child (-1 = leaf); lets children learn their heavy/light status *)
  seq : Repro_labels.Nca_labels.label;
  frags : Repro_labels.Fragment_labels.label;
  cand_agg : cand Aggregate.t option;
  cut_agg : cut Aggregate.t option;
  sw : session option;
}

module P : Repro_runtime.Protocol.S with type state = state

module Engine : module type of Repro_runtime.Engine.Make (P)

(** Flat int-array serialization of the (variable-length) MST register:
    [unpack ~n (pack ~n s) = s] is a qcheck property. The register has
    no fixed width — [seq] grows transiently — so the codec grounds the
    bits accounting (PAPER_MAP.md) rather than driving the packed
    engine; see SCALING.md. *)
module Codec : Repro_runtime.Protocol.CODEC with type state = state

(** The tree currently encoded by the registers, if any and if every
    parent pointer is an edge of the graph. *)
val tree_of : Repro_graph.Graph.t -> state array -> Repro_graph.Tree.t option

(** Global legality: the registers encode the (unique) MST with all label
    layers at their fixpoint and no pending session. *)
val is_legal : Repro_graph.Graph.t -> state array -> bool

(** The Section VI potential of the currently encoded tree (via
    [Fragment_labels.potential] on freshly proven labels); [None] when
    the structure is not a tree. *)
val potential : Repro_graph.Graph.t -> state array -> int option
