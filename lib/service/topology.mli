(** The mutable-topology wrapper of service mode: validated churn-op
    application over {!Repro_graph.Graph}'s incremental edits, plus
    register migration across the node-set changes.

    {b Hardening.} {!check} is the churn grammar's input gate, in the
    style of [Fault.corrupt_nodes]: out-of-range endpoints, self-loops,
    duplicate edges, absent edges, empty or duplicate anchor lists, and
    — because every protocol in this repository assumes a connected
    network — deletes and leaves that would disconnect the graph are
    all rejected with a descriptive error. {!apply} checks first and
    raises [Invalid_argument] with the same message.

    {b Cost.} {!check} and {!apply} share one edit function: it builds
    the edited graph once (an O(n+m) {!Repro_graph.Graph} edit) and, for
    the two ops that can disconnect — an edge delete and a leave — runs
    one O(n+m) connectivity scan on that same graph. {!check} therefore
    costs as much as {!apply}, and {!apply} needs no {!check} before
    it.

    {b Migration.} Surviving nodes keep their registers verbatim across
    an edit — stale contents (a parent edge that no longer exists, a
    renamed neighbor) are exactly the arbitrary registers
    self-stabilization already tolerates, so no scrubbing is needed;
    the builders treat them as an adversarial starting point. Joined
    nodes get a caller-supplied fresh register
    ([P.random_state] — adversarial boot — in the service driver);
    a leave drops the removed node's register and moves the
    swap-renamed node's register into the vacated slot. *)

type migration =
  | Unchanged  (** edge edit: same node set *)
  | Grow of int  (** a join: the fresh node's id (= old node count) *)
  | Swap of { removed : int; renamed_from : int }
      (** a leave: [renamed_from] (the old highest id) now answers to
          id [removed]; when they coincide the leave was a clean
          truncation. *)

(** [check g op] — validate [op] against topology [g] without applying
    it. [Error msg] carries the op's grammar spelling and what is wrong
    with it. *)
val check : Repro_graph.Graph.t -> Churn.op -> (unit, string) result

(** [apply g op] — validate and apply, returning the edited graph and
    the migration recipe for the node set.
    @raise Invalid_argument with {!check}'s message on an invalid op. *)
val apply : Repro_graph.Graph.t -> Churn.op -> Repro_graph.Graph.t * migration

(** [migrate states mig ~fresh] — carry a register array across a
    migration: survivors verbatim, [fresh id] for a grown node, the
    swap-renamed register moved into the hole for a leave. The result
    is always a fresh array sized to the edited node count. *)
val migrate : 'state array -> migration -> fresh:(int -> 'state) -> 'state array

(** [migrate_bank bank mig ~fresh] — {!migrate} for a packed register
    bank ([words] int lanes of length n, see
    {!Repro_runtime.Engine_packed}): survivors' lane words are copied
    verbatim, [fresh id] supplies the packed register of a grown node
    (the service driver packs one adversarial draw), and a leave moves
    the swap-renamed node's words into the hole, lane by lane. The
    result is a fresh bank sized to the edited node count.
    @raise Invalid_argument if [fresh] returns the wrong width. *)
val migrate_bank :
  int array array -> migration -> fresh:(int -> int array) -> int array array

(** [affected g op mig] — the nodes, named in the {e edited} graph's
    id space, whose local views the edit changed: the endpoints of an
    edge edit (or reweight), the fresh node and its anchors for a join;
    for a leave, the old neighbors (post-rename) of the removed node
    and, when the leave renames the old highest id into the hole, the
    renamed node itself (its id changed) and its neighbors (a neighbor
    id changed, and a parent pointer to the old id now dangles). [g]
    is the {e pre-edit} graph; the result is sorted and deduplicated.
    These are the churn-event emission sites. A view also carries the
    node count, so a join or leave changes every view's [n]; the
    builders declare which registers that can matter to
    ({!Repro_runtime.Protocol.PACKED.n_sensitive}), and the service's
    warm start adds them to this set. *)
val affected : Repro_graph.Graph.t -> Churn.op -> migration -> int list
