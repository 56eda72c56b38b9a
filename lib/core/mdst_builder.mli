(** Silent self-stabilizing minimum-degree spanning tree construction —
    the paper's Algorithm 4 (Fürer–Raghavachari) run as a PLS-guided
    local search with well-nested swap sequences (Sections VII-VIII),
    stabilizing on FR-trees, hence on spanning trees of degree at most
    OPT + 1 (Corollary 8.1), with O(log n)-bit registers.

    Register layers (each a local rule, gated on the lower layers):

    + {b tree} — [St_layer], shape preserving;
    + {b switch hand-off} — the loop-free chain shared with
      [Mst_builder] ({!Local_search}), backed by the improvement
      aggregate; a flip or initiation drops the node's marking;
    + {b labels} — published tree degree, then the shared subtree size,
      heavy child and NCA sequence (for the fundamental-cycle tests);
    + {b Δ} — the tree degree [Δ_T], agreed by a max-aggregate over the
      published degrees;
    + {b marking} — the good/bad marking of Definition 8.1 maintained as
      rules: degree ≤ Δ−2 forces good; a witness-good node stores the
      non-tree edge [e] whose fundamental cycle covered it (Algorithm 4
      line 7) together with the endpoint labels and its own label at
      marking time, and keeps re-validating the mark: the cycle must
      still cover it, its own position must not have moved, the witness
      must not be incident to it nor be one of its tree edges — every
      violated check is a staleness proof that drops the mark; fragment
      ids use anchored distance chains, exactly as in the [Fr_pls]
      certificate;
    + {b closure} — an aggregate agreeing on a non-tree edge joining good
      nodes of two different fragments; every non-good node on its cycle
      marks itself good with that witness (the closure loop of
      Algorithm 4 lines 6-9);
    + {b improvement} — when some degree-Δ node is good (a global fact
      agreed by a hub aggregate), witness-good nodes of degree ≥ Δ−1
      publish improvement candidates, preferring the highest degree. An
      endpoint of the agreed candidate's witness vetoes it when it cannot
      absorb an extra edge (degree > Δ−2) or when the data is provably
      stale (the witness became a tree edge, or a carried endpoint label
      mismatches the endpoint's current label); a veto drops the
      candidate's mark, and the vetoed witness is remembered (with the
      holder's degree) so it is not immediately re-adopted — the closure
      then re-marks from fresh data, and the ready frontier (the
      innermost swaps of Section VII's well-nested sequences) executes
      first through this retry loop. The block expires when the holder's
      degree changes or when no hub remains, letting the closure complete
      into a full FR witness before silence;
    + {b initiation} — the endpoint of the witness edge inside the
      detached subtree checks both endpoint degrees and starts the switch
      chain that removes a tree edge at the candidate node.

    At silence the marking rules are at their fixpoint: every node of
    degree ≤ Δ−2 is good and good tree neighbours share a fragment id;
    in every measured run, degree-Δ nodes were bad as well. The register
    marking is {e not} always an FR witness, though: the closure can
    stop with a non-tree edge joining good nodes of two fragments. For
    example, [Generators.gnp (Random.State.make [|3|]) ~n:9 ~p:0.35]
    run under [Synchronous] from [Engine.initial] ends silent and legal,
    yet [Min_degree.is_fr_tree g t (marking_of states)] is false: the
    non-tree edge [{1,6}] joins good nodes of fragments 1 and 6 (in a
    sweep of 80 connected gnp graphs, n 6–15, mixed daemons and starts,
    about three silent legal runs in ten end this way). So {!is_legal}
    searches for a marking itself, and this builder cannot yet verify
    through [Fr_pls]. Nor does silence imply legality: the veto block
    can leave a silent non-FR tree (E13). *)

module E = Repro_graph.Graph.Edge
module Nca = Repro_labels.Nca_labels

type mark = {
  witness : E.t;
  su : Nca.label;
  sv : Nca.label;
  rank : int;
  zseq : Nca.label;
      (** the holder's own NCA label at marking time: if the holder has
          since moved in the tree the mark self-invalidates *)
}

type icand = {
  z : int;  (** the node whose degree the swap reduces *)
  zdeg : int;
  rank : int;
  e : E.t;  (** its witness edge *)
  su : Nca.label;  (** NCA label of [e]'s smaller endpoint *)
  sv : Nca.label;  (** NCA label of [e]'s larger endpoint *)
  f : E.t;  (** the tree edge shed at [z], computed by [z] itself *)
  f_child : int;
  f_child_seq : Nca.label;
}

type mcand = { me : E.t; msu : Nca.label; msv : Nca.label; mrank : int }

type veto = {
  vc : icand;
  hard : bool;
      (** always [true] in the current design (every veto drops the mark
          and installs a {!state.blocked} entry); kept in the value so
          experiments can distinguish veto causes if re-introduced *)
}

type state = {
  st : St_layer.t;
  size : int;
  heavy : int;
  seq : Nca.label;
  deg : int;  (** published tree degree *)
  dmax : int Aggregate.t option;  (** Δ_T (max-aggregate) *)
  good : bool;
  mark : mark option;  (** witness data when good by marking *)
  frag : int;  (** fragment id; -1 when bad *)
  fdist : int;
  hub_agg : int Aggregate.t option;  (** min id of a good degree-Δ node *)
  mark_agg : mcand Aggregate.t option;
  imp_agg : icand Aggregate.t option;
  veto_agg : veto Aggregate.t option;
  blocked : (E.t * int) option;
      (** a vetoed witness edge, remembered together with the degree the
          node had when it was vetoed: the node refuses to re-adopt that
          witness until its degree changes, which breaks re-marking
          cycles without unbounded bookkeeping *)
  sw : icand Local_search.session option;
}

module P : Repro_runtime.Protocol.S with type state = state

module Engine : module type of Repro_runtime.Engine.Make (P)

(** Flat int-array serialization of the MDST register (see
    {!Mst_builder.Codec}): round-trip-pinned, grounds the bits
    accounting of PAPER_MAP.md. *)
module Codec : Repro_runtime.Protocol.CODEC with type state = state

val tree_of : Repro_graph.Graph.t -> state array -> Repro_graph.Tree.t option

(** Legality: the encoded structure is a spanning tree that admits an FR
    witness marking ([Min_degree.find_marking]); its degree is then at
    most OPT + 1. *)
val is_legal : Repro_graph.Graph.t -> state array -> bool

(** The marking currently stored in the registers. *)
val marking_of : state array -> Repro_graph.Min_degree.marking
