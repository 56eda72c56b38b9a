(** The PLS-guided local search both tree-improvement builders run: the
    paper's Algorithm 1, instantiated for MST ({!Mst_builder}, Algorithm
    2) and MDST ({!Mdst_builder}, Algorithm 4).

    Both registers start with the spanning-tree layer ([St_layer]), the
    subtree size, the heavy child and the NCA label of Section V that
    locates fundamental cycles, and carry a switch session: the token of
    the loop-free chain of local switches of Section IV (Lemma 4.1) that
    executes one swap [T + e − f]. They differ only in the task labels
    that certify the target family and in the swap they agree on. This
    module writes the shared part once; a builder supplies its
    register's accessors ({!REGISTER}) and composes the rules of {!Make}
    with its own in one static array ({!first_move}). *)

module E = Repro_graph.Graph.Edge
module Nca = Repro_labels.Nca_labels
module View = Repro_runtime.View
module C = Repro_runtime.Codec

(** A switch token: the agreed swap and its addressee ([-1] = chain
    complete). *)
type 'c session = { cut : 'c; next : int }

(** A register's shared fields. [cut] is the swap a session carries
    (MST's cut, MDST's improvement candidate) and [f_child] the child
    endpoint of its removed edge [f]; [backs s cut] holds when the
    node's own agreement is [cut]; [cleared] drops the session; and
    [switched] is the switch write: tree fields and session, plus the
    task fields a re-parent invalidates. *)
module type REGISTER = sig
  type t
  type cut

  val st : t -> St_layer.t
  val size : t -> int
  val heavy : t -> int
  val seq : t -> Nca.label
  val sw : t -> cut session option
  val f_child : cut -> int
  val equal_cut : cut -> cut -> bool
  val backs : t -> cut -> bool
  val with_st : t -> St_layer.t -> t
  val with_size : t -> int -> t
  val with_heavy : t -> int -> t
  val with_seq : t -> Nca.label -> t
  val cleared : t -> t
  val switched : t -> St_layer.t -> cut session -> t
end

(** [first_move rules ~equal view] — collateral composition: the first
    rule that fires, in priority order; a result [equal] to the register
    is no move, so silence is syntactic. *)
val first_move :
  ('a View.t -> 'a option) array -> equal:('a -> 'a -> bool) -> 'a View.t -> 'a option

(** Garbage registers: an NCA label of one or two pairs, and an edge
    that is never a self-loop. *)
val random_seq : Random.State.t -> int -> Nca.label
val random_edge : Random.State.t -> int -> E.t

(** {2 Codec pieces} *)

val push_edge : C.writer -> E.t -> unit
val take_edge : C.reader -> E.t
val push_seq : C.writer -> Nca.label -> unit
val take_seq : C.reader -> Nca.label
val push_agg : (C.writer -> 'v -> unit) -> C.writer -> 'v Aggregate.t -> unit
val take_agg : (C.reader -> 'v) -> C.reader -> 'v Aggregate.t
val push_session : (C.writer -> 'c -> unit) -> C.writer -> 'c session -> unit
val take_session : (C.reader -> 'c) -> C.reader -> 'c session

module Make (R : REGISTER) : sig
  (** {2 The tree-neighbour index} (view indices) *)

  (** The parent's; [-1] at a root or for a parent that is no
      neighbour. *)
  val parent_index : R.t View.t -> int

  (** The parent's first (when a neighbour), then every child in
      increasing id order; a parent that names the node as its own
      parent is listed twice. *)
  val tree_nbrs : R.t View.t -> int array

  (** {2 The switch chain} *)

  (** Neighbour [i] has my root and a distance within the TTL: flips
      and initiations never cross trees (the election owns that). *)
  val joinable : R.t View.t -> int -> bool

  (** The register's session carries the cut: a live token blocks
      re-initiation and re-consumption. *)
  val holds : R.t -> R.cut -> bool

  (** [switch view i cut] — the chain's one write, ending every
      initiation and hand-off: re-parent onto neighbour [i], token to
      the old parent (or [-1] at [f]'s child endpoint). *)
  val switch : R.t View.t -> int -> R.cut -> R.t

  (** {2 Rules} ([None] when quiescent)

      [flip_rule] consumes a backed token and passes it on;
      [clear_rule] drops a consumed or garbage token;
      [size_heavy_rule] writes a stale size first, then a stale heavy
      child. *)

  val tree_rule : R.t View.t -> R.t option
  val flip_rule : R.t View.t -> R.t option
  val clear_rule : R.t View.t -> R.t option

  val size_heavy_rule : R.t View.t -> R.t option
  val seq_rule : R.t View.t -> R.t option

  (** {2 Configuration, rule tags, codec} *)

  val tree_of : Repro_graph.Graph.t -> R.t array -> Repro_graph.Tree.t option

  (** A tree or session change: ["switch"] (re-parent with a session
      write), the {!St_layer.classify} tag, ["token"] or
      ["token-clear"]. *)
  val chain_tag : R.t -> R.t -> string option

  (** ["size"], ["heavy"] or ["seq"]. *)
  val label_tag : R.t -> R.t -> string option

  (** The shared prefix words: parent, root, dist, size, heavy, seq. *)
  val push_prefix : C.writer -> R.t -> unit
  val take_prefix : C.reader -> St_layer.t * int * int * Nca.label
end
