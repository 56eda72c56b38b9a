(** Protocols in the state model.

    A protocol is a transition function [δ : S* → S] (Section II-A): given
    a node's {!View.t}, either the node is not enabled ([step] returns
    [None]) or it is enabled and [step] returns the register it would
    write. A protocol is {e silent} on a configuration when no node is
    enabled.

    [size_bits] reports the number of bits a state occupies in a register,
    used by the space-complexity experiments (E1/E2/E9). Implementations
    count the information-theoretic content of their fields (e.g. an id in
    [{1..n^c}] costs [c log n] bits), not the OCaml heap representation. *)

module type S = sig
  type state

  val equal_state : state -> state -> bool
  val pp_state : Format.formatter -> state -> unit

  (** Register size in bits, for space accounting. *)
  val size_bits : int -> state -> int

  (** A canonical "just booted" register; self-stabilization never relies
      on it (tests start from adversarial states too), but experiments
      need a designated start. *)
  val initial : Repro_graph.Graph.t -> int -> state

  (** An arbitrary (adversarial) register for node [id]: used both as a
      worst-case initial configuration and for fault injection. *)
  val random_state : Random.State.t -> Repro_graph.Graph.t -> int -> state

  (** The transition function. [None] = not enabled. Must be a function of
      the view only. *)
  val step : state View.t -> state option

  (** The task's legality predicate on global configurations (the set of
      legal states of Section II-A). Used by tests and experiments, never
      by [step]. *)
  val is_legal : Repro_graph.Graph.t -> state array -> bool

  (** The protocol's global potential [Φ] on a configuration, when it
      defines one (Lemmas 3.1/7.1: [Φ] decreases along legitimate
      executions and is 0 exactly on the stable family). [None] when the
      protocol has no potential or the configuration is outside its
      domain (e.g. the registers do not encode a tree). Observational
      only — recorded in {!Events} round events and read by the
      watchdog and the greedy daemons, never by [step]. *)
  val potential : Repro_graph.Graph.t -> state array -> int option

  (** [classify old new_] names the rule (or phase) responsible for the
      register transition [old -> new_], e.g. ["reparent"], ["size"],
      ["switch"]. Consumed by the event/profiling layer ({!Events},
      {!Profile}) to break executions down per rule; never by [step].
      The tag is derived from the register {e delta} rather than the
      view so it stays meaningful under the synchronous daemon's
      deferred writes. [None] when the protocol does not classify its
      moves (events are then recorded untagged). *)
  val classify : (state -> state -> string) option
end

(** A register codec: the boxed state as a flat [int array] and back.

    [unpack ~n (pack ~n s)] must equal [s] for every state reachable
    from [initial] or [random_state] on an n-node graph (the round-trip
    is a qcheck property per builder, see test_packed). Variable-length
    states (MST, MDST) use the self-delimiting encodings of {!Codec};
    their codecs ground the bits accounting of PAPER_MAP.md without
    driving an engine. *)
module type CODEC = sig
  type state

  val pack : n:int -> state -> int array
  val unpack : n:int -> int array -> state
end

(** A protocol whose registers fit a {e fixed} number of int lanes, so
    {!Engine_packed} can run it out of a struct-of-arrays bank with zero
    steady-state allocation (see SCALING.md).

    Contract, on top of {!S}:
    - [pack ~n s] always returns exactly [words] ints, and
      [unpack ~n (pack ~n s) = s], for every register a run can reach
      (random draws, moves, {!Fault.bitflip}); on a register outside
      that range [pack] may raise [Invalid_argument], never clamp (the
      bfs and spt codecs pair two 31-bit fields in one lane);
    - [size_bits n s] does not depend on [s] (fixed register width), so
      the packed engine can report [max_bits] without unpacking;
    - [step_packed pv] is extensionally [step]: with the bank holding
      the packed configuration and [pv.focus = v], it returns [false]
      iff [step (view of v)] is [None], and otherwise writes
      [pack (the state step returns)] into [pv.move] and returns [true].
      Like every builder's [step], a returned move is never equal to the
      current register (silence is syntactic). The equivalence suite
      pins [step_packed] against [step] pointwise and whole-run. *)
module type PACKED = sig
  include S

  (** Register width in int lanes. *)
  val words : int

  val pack : n:int -> state -> int array
  val unpack : n:int -> int array -> state
  val step_packed : Pview.t -> bool

  (** Legality on the lanes — one certificate per builder. [is_legal g
      sts] holds iff [certify_tree g bank] and [certify g bank v] for
      every node [v], where [bank] packs [sts]; every packed builder
      derives its boxed [is_legal] so ({!certified}). [certify g bank
      v] is a per-node conjunct: it reads [v]'s id, edges and lanes, its
      neighbours' lanes, its parent's lanes and [n] (plus, for SPT, the
      total weight, see spt_builder.mli). [certify_tree] holds the
      conjuncts that are not per-node ([fun _ _ -> true] when there
      are none). The packed engine decides legality on these, and
      after a warm start re-checks [certify] only near the edit. *)
  val certify : Repro_graph.Graph.t -> int array array -> int -> bool

  val certify_tree : Repro_graph.Graph.t -> int array array -> bool

  (** [n_sensitive ~n ~n' bank u] — whether a guard may read node [u]'s
      lanes differently under node count [n] than under [n'] (a TTL
      test on a distance lane). After a join or leave, only the closed
      neighbourhoods of these nodes, besides the nodes whose views the
      edit changed, can change their guards: a warm start seeds them. *)
  val n_sensitive : n:int -> n':int -> int array array -> int -> bool
end

(** [certified_bank ~certify ~certify_tree g bank] — the lane
    certificate over every node. *)
val certified_bank :
  certify:(Repro_graph.Graph.t -> int array array -> int -> bool) ->
  certify_tree:(Repro_graph.Graph.t -> int array array -> bool) ->
  Repro_graph.Graph.t ->
  int array array ->
  bool

(** [certified ~words ~pack ~certify ~certify_tree g sts] — the lane
    certificate decided on boxed registers: [sts] has one register per
    node and its packed bank passes {!certified_bank}. The boxed
    [is_legal] of every packed builder. *)
val certified :
  words:int ->
  pack:(n:int -> 'state -> int array) ->
  certify:(Repro_graph.Graph.t -> int array array -> int -> bool) ->
  certify_tree:(Repro_graph.Graph.t -> int array array -> bool) ->
  Repro_graph.Graph.t ->
  'state array ->
  bool
