(** Execution engine for the state model.

    [Make (P)] runs protocol [P] on a network under a chosen scheduler,
    counting {e steps} (individual register writes) and {e rounds} exactly
    as defined in Section II-A of the paper: a round is the shortest
    execution prefix in which every node that was enabled at the start of
    the prefix has either taken a step or become non-activatable because
    of a neighbor's action.

    One incremental executor loop ({!Loop}) implements that semantics
    over a small register-store interface ({!STORE}). The loop memoizes
    each node's pending move (so a write applies the cached register
    instead of re-running the guard), keeps the enabled set as an
    intrusive doubly-linked list with a bitset mirror ({!Enabled_set})
    so a register write costs O(Δ) guard probes and a daemon pick
    touches only the enabled nodes, and owns every hook. Two stores
    plug into it: {!Make}'s boxed store (a [P.state array] and one
    scratch {!View.t} per node, refreshed in place) and
    {!Engine_packed}'s struct-of-arrays bank. {!Make.run_reference} is
    the naive executor kept as the semantics oracle — fresh views and a
    full [P.step] per probe — and the loop is property-tested to
    produce identical trajectories on both stores (see
    [test/test_engine_equiv.ml], [test/test_packed.ml] and
    PERFORMANCE.md). *)

(** The executor's signature, up to the registers it starts from
    (['k] is [init:_ -> result] or [bank:_ -> result]). See {!S.run}. *)
type ('state, 'k) runner =
  ?max_steps:int ->
  ?max_rounds:int ->
  ?track_legal:bool ->
  ?stop_when_legal:bool ->
  ?on_round:(int -> 'state array -> unit) ->
  ?on_step:(int -> 'state array -> unit) ->
  ?adversary:(round:int -> 'state array -> (int * 'state) list) ->
  ?stop_when:(unit -> bool) ->
  ?events:Events.t ->
  ?profile:Profile.t ->
  ?init_causes:(int -> int list) ->
  ?round_offset:int ->
  ?step_offset:int ->
  Repro_graph.Graph.t ->
  Scheduler.t ->
  Random.State.t ->
  'k

(** What both engines expose ({!Make} and {!Engine_packed.Make}). *)
module type S = sig
  type state

  type result = {
    states : state array;  (** final configuration *)
    steps : int;  (** individual register writes *)
    rounds : int;  (** completed rounds (paper definition) *)
    silent : bool;  (** no node enabled at the end *)
    legal : bool;  (** [P.is_legal] holds at the end *)
    max_bits : int;  (** max register size (bits) ever observed *)
    first_legal_round : int option;
        (** first round boundary at which the configuration was legal; only
            tracked when [run] is called with [~track_legal:true] *)
  }

  (** [initial g] is the designated boot configuration. *)
  val initial : Repro_graph.Graph.t -> state array

  (** [adversarial rng g] is a configuration of arbitrary registers — the
      self-stabilization starting point. *)
  val adversarial : Random.State.t -> Repro_graph.Graph.t -> state array

  (** [silent g states] — no node is enabled, decided by a full guard
      on fresh views; short-circuits on the first enabled node. *)
  val silent : Repro_graph.Graph.t -> state array -> bool

  (** [run ?max_steps ?max_rounds ?track_legal ?stop_when_legal
      ?on_round ?on_step g sched rng ~init] executes until silence or a
      limit is hit. [on_round] is called with the round index and the
      current configuration at every round boundary (round 0 = the
      initial configuration); [on_step] is called after {e every}
      individual register write with the acting node and the live
      configuration — used by invariant monitors such as the loop-freedom
      check. If [stop_when_legal] is set,
      execution stops at the first legal round boundary — used for
      non-silent baselines that never terminate on their own. Defaults:
      [max_steps] = 10_000_000, [max_rounds] = 200_000,
      [track_legal] = false.

      Two chaos-harness hooks:

      [adversary] models {e mid-execution transient faults}. It is
      invoked at every round boundary (including round 0) with the round
      index and the live configuration, and returns register overwrites
      [(node, state)] to apply {e as faults}: they count as neither steps
      nor [Move] events and do not fire [on_step], but they invalidate
      the affected guards, are observed for [max_bits], and the round
      accounting restarts from the resulting enabled set — so recovery is
      measured from live intermediate configurations, not only from
      silent ones. The callback must treat the passed configuration as
      read-only (return writes; do not mutate it) and return only
      in-range node ids.

      [stop_when] is a polling predicate consulted after every register
      write and at every round boundary; when it first returns [true]
      the run aborts where it stands (remaining writes of a synchronous
      or distributed batch are skipped, and no further faults are
      injected). The convergence watchdog ({!Watchdog}) uses it to cut
      livelocked or stalled runs short instead of burning the round
      budget.

      Observability hooks (all off by default; attaching none of them
      leaves the execution bit-identical — none consume RNG draws):

      [events] is the run's one recording: one structured event per
      write / fault / round boundary into an {!Events} sink, with causal
      provenance — every move carries the ids of the writes that
      (re-)enabled it, read off the executor's own wakeup path (see
      {!Events} and OBSERVABILITY.md). A round event carries the
      enabled-node count, the (max, total) register bits and, when the
      sink asks for it, the live [P.potential]; the sink folds these
      into the per-round series ({!Events.samples}). [init_causes v] supplies the cause ids for
      nodes the {e initial} configuration enables (chaos uses it to
      attribute recovery to fault events it emitted before the run);
      nodes not covered are root-spontaneous. [round_offset] /
      [step_offset] shift the round/step fields of emitted events only
      (never the semantics) so multi-run episodes share one timeline.

      [profile] counts guard evaluations, view refreshes (boxed store
      only), wakeups, flushes, enabled-set churn and per-rule moves into
      a {!Profile} record.

      Every hook that reads the configuration ([on_round], [on_step],
      [adversary], Φ, legality, rule tags) sees boxed states: the packed
      store re-boxes only the registers written since the last such read.
      [run_reference] stays the uninstrumented oracle. Under the
      synchronous daemon the executor coalesces guard re-probes per
      batch, so a move's [causes] name every adjacent write of the
      waking batch, where a per-write engine would name only the first —
      the DAG invariant (causes precede, edge-adjacent) holds either
      way. *)
  val run : (state, init:state array -> result) runner
end

(** {2 The register store}

    Where the registers and the move cache live. The loop calls
    [probe] once per guard evaluation and [commit] once per move; the
    boxed accessors ([register], [move], [config]) are read only when a
    hook needs them. *)
module type STORE = sig
  module P : Protocol.S

  (** What a run starts from. *)
  type regs

  type t

  (** [create ?profile g regs] — the run's store (a boxed store copies
      [regs]; a packed bank is used in place). *)
  val create : ?profile:Profile.t -> Repro_graph.Graph.t -> regs -> t

  (** [probe t v] evaluates [v]'s guard on the live registers and
      caches the move; [true] iff [v] is enabled. *)
  val probe : t -> int -> bool

  (** [commit t v] writes [v]'s cached move (only called on an enabled
      [v]); [false] iff the register is physically unchanged, so no
      view needs a re-probe. *)
  val commit : t -> int -> bool

  (** [overwrite t v s] — a fault; [false] iff [s] is already [v]'s
      register (physically). *)
  val overwrite : t -> int -> P.state -> bool

  (** [v]'s register and its cached move, boxed. *)
  val register : t -> int -> P.state

  val move : t -> int -> P.state

  (** Register bits of [v], and (max, total) over all nodes. *)
  val bits : t -> int -> int

  val bits_summary : t -> int * int

  (** The live configuration, boxed. Callers may write a slot only to
      restore it before the next store call. *)
  val config : t -> P.state array
end

(** The incremental executor over store [St]: [run] is {!S.run} on
    [St]'s registers. *)
module Loop (St : STORE) : sig
  type result = {
    states : St.P.state array;
    steps : int;
    rounds : int;
    silent : bool;
    legal : bool;
    max_bits : int;
    first_legal_round : int option;
  }

  val initial : Repro_graph.Graph.t -> St.P.state array
  val adversarial : Random.State.t -> Repro_graph.Graph.t -> St.P.state array
  val silent : Repro_graph.Graph.t -> St.P.state array -> bool
  val run : (St.P.state, init:St.regs -> result) runner
end

module Make (P : Protocol.S) : sig
  include S with type state = P.state

  (** [view g states v] is node [v]'s local view of the configuration. *)
  val view : Repro_graph.Graph.t -> P.state array -> int -> P.state View.t

  (** [enabled g states] is the list of enabled (activatable) nodes. *)
  val enabled : Repro_graph.Graph.t -> P.state array -> int list

  (** [run_reference] — same semantics as {!run}, none of the
      incremental machinery: every guard probe allocates a fresh view
      and re-runs [P.step], every write re-evaluates the guard of the
      whole closed neighborhood, and the daemons rescan all n nodes per
      pick. It exists as the oracle the equivalence property suites
      compare both stores against (identical [states], [steps],
      [rounds], [silent], [legal] on the same seed), and as the
      fallback to bisect against if an engine bug is ever suspected.
      Use {!run} everywhere else. *)
  val run_reference :
    ?max_steps:int ->
    ?max_rounds:int ->
    ?track_legal:bool ->
    ?stop_when_legal:bool ->
    ?on_round:(int -> P.state array -> unit) ->
    ?on_step:(int -> P.state array -> unit) ->
    ?adversary:(round:int -> P.state array -> (int * P.state) list) ->
    ?stop_when:(unit -> bool) ->
    Repro_graph.Graph.t ->
    Scheduler.t ->
    Random.State.t ->
    init:P.state array ->
    result
end
