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
    instead of re-running the guard), keeps the enabled set as one {!Bitset.t}
    so a register write costs O(Δ) guard probes and a daemon pick
    scans [n/32] words plus the enabled nodes, and owns every hook. Two stores
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
  ?on_round:(int -> 'state array -> unit) ->
  ?on_step:(int -> 'state array -> unit) ->
  ?adversary:(round:int -> 'state array -> (int * 'state) list) ->
  ?stop_when:(unit -> bool) ->
  ?watchdog:Watchdog.t ->
  ?warm:int array ->
  ?events:Events.t ->
  ?profile:Profile.t ->
  Repro_graph.Graph.t ->
  Scheduler.t ->
  Random.State.t ->
  'k

(** A run's counts without its configuration: what
    {!Engine_packed.Make.run_bank} returns, the registers being left
    in the caller's bank. Fields as in {!S.result}. *)
type stats = { steps : int; rounds : int; silent : bool; legal : bool; max_bits : int }

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
  }

  (** [initial g] is the designated boot configuration. *)
  val initial : Repro_graph.Graph.t -> state array

  (** [adversarial rng g] is a configuration of arbitrary registers — the
      self-stabilization starting point. *)
  val adversarial : Random.State.t -> Repro_graph.Graph.t -> state array

  (** [silent g states] — no node is enabled, decided by a full guard
      on fresh views; short-circuits on the first enabled node. *)
  val silent : Repro_graph.Graph.t -> state array -> bool

  (** [run ?max_steps ?max_rounds ?on_round ?on_step g sched rng
      ~init] executes until silence or a limit is hit. [on_round] is called with the round index and the
      current configuration at every round boundary (round 0 = the
      initial configuration); [on_step] is called after {e every}
      individual register write with the acting node and the live
      configuration — used by invariant monitors such as the loop-freedom
      check. Defaults: [max_steps] = 10_000_000, [max_rounds] =
      200_000.

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
      injected).

      [watchdog] is the run's convergence watchdog ({!Watchdog}). The
      engine observes it at every round boundary, before [on_round]:
      the watchdog owns the round clock, so the round is the
      watchdog's {!Watchdog.last_round} at run start plus the
      run-relative round (round 0 shares the previous run's last
      boundary, as on an [events] sink's timeline), the hash is the
      store's fingerprint (on the packed store a sum of per-node lane
      hashes kept current by every write, so observing costs O(1) and
      boxes nothing; on the boxed store
      {!Watchdog.config_hash}), a repeated hash is verified against an
      exact serialization of the registers, and [Φ] is computed only
      when the watchdog watches it. The run stops where it stands,
      like [stop_when], once {!Watchdog.stops} holds — so a livelocked
      or stalled run is cut short instead of burning the round budget.

      [warm] is a warm start: the caller vouches that the starting
      configuration was silent and legal before an edit that changed
      only the views of the [warm] nodes (their ids, edges, neighbours,
      or an n they are sensitive to). The initial guard scan then probes
      only [warm] instead of all n nodes, and the final legality check
      covers only the closed neighbourhoods of [warm] and of the nodes
      the run wrote, where the store has a per-node certificate
      ({!Protocol.PACKED.certify}); the boxed store checks
      [P.is_legal] in full. Trajectories are those of a cold start
      whenever the promise holds (a qcheck property in test_service
      pins the warm-started enabled set to the full scan's).

      Observability hooks (all off by default; attaching none of them
      leaves the execution bit-identical — none consume RNG draws):

      [events] is the run's one recording: one structured event per
      write / fault / round boundary into an {!Events} sink, with causal
      provenance — every move carries the ids of the writes that
      (re-)enabled it, read off the executor's own wakeup path (see
      {!Events} and OBSERVABILITY.md). A move event carries the
      node, step, round, rule tag and register bits before and after;
      Φ is never evaluated per move. A round event carries the
      enabled-node count, the (max, total) register bits and, when the
      sink asks for it, the live [P.potential]; the sink folds these
      into the per-round series ({!Events.samples}). The sink owns
      the timeline: the run numbers its rounds from the sink's
      {!Events.last_round} (its round 0 shares the previous run's last
      round) and its steps after the sink's {!Events.writes_total}, so
      consecutive runs on one sink (a [--faults] run, a chaos or a
      service episode) share one timeline; the semantics and the
      result's counts stay run-relative. A run starts by taking the
      sources the caller recorded with {!Events.emit_sources} (faults
      or churn applied to a silent configuration outside the engine):
      they become the causes of the initially enabled nodes in their
      closed neighbourhoods; other nodes are root-spontaneous.

      [profile] counts guard evaluations, view refreshes (boxed store
      only), wakeups, flushes, enabled-set churn and per-rule moves into
      a {!Profile} record.

      Every hook that reads the configuration ([on_round], [on_step],
      [adversary], Φ, rule tags) sees boxed states: the packed store
      re-boxes only the registers written since the last such read.
      Legality and the watchdog's fingerprint read the store directly.
      [run_reference] stays the uninstrumented oracle. Under the
      synchronous daemon the executor coalesces guard re-probes per
      batch, so a move's [causes] name every adjacent write of the
      waking batch, where a per-write engine would name only the first —
      the DAG invariant (causes precede, edge-adjacent) holds either
      way. *)
  val run : (state, init:state array -> result) runner
end

(** {2 The register store}

    Where the registers and the move cache live. The loop evaluates
    guards only through [probe_sweep], writes a synchronous round with
    one [commit_sweep] and a sequential daemon's move with [commit];
    the boxed accessors ([register], [previous], [move], [config]) are
    read only when a hook needs them.

    {b The sweep contract.} Both sweeps visit the members of a bitset in
    increasing node order and take an optional per-node callback, the
    loop's bookkeeping for hooks that watch single steps (events,
    [profile], [on_step], [stop_when], a warm start's written set).
    With [None] they do no per-node work beyond the registers and the
    sets. A synchronous round is [commit_sweep] over the enabled set
    and then [probe_sweep] over the dirty set it left: every move
    applies a cache computed on the round-top configuration, and every
    guard in the writers' closed neighbourhoods is re-evaluated once,
    on the configuration after the whole batch. *)
module type STORE = sig
  module P : Protocol.S

  (** What a run starts from. *)
  type regs

  type t

  (** [create ?profile ~watched g regs] — the run's store (a boxed
      store copies [regs]; a packed bank is used in place). [watched]:
      a watchdog will read {!fingerprint} at every round boundary. *)
  val create : ?profile:Profile.t -> watched:bool -> Repro_graph.Graph.t -> regs -> t

  (** [probe_sweep t dirty ~enabled visit] evaluates the guard of every
      member of [dirty] on the live registers, caching the move of
      each enabled one and setting its membership in [enabled], then
      empties [dirty]. With [Some f], [f v was now] is called right
      after [v]'s guard, [was]/[now] being [v]'s membership before and
      after; [f] must not read [enabled] or [dirty] (the sweep may
      hold their words mid-update). *)
  val probe_sweep :
    t -> Bitset.t -> enabled:Bitset.t -> (int -> bool -> bool -> unit) option -> unit

  (** [commit_sweep t batch ~dirty visit] writes the cached move of
      every member of [batch] (all enabled), adding the closed
      neighbourhood of each register that physically changed to
      [dirty]; returns the largest register written, in bits (0 if
      none). With [Some f], [f v changed] is called right after [v]'s
      write and marks; when it returns [false] the sweep stops there,
      leaving the later members unwritten — a stop in the middle of a
      batch. [f] may read the store and [dirty] but must not write
      [batch]. *)
  val commit_sweep : t -> Bitset.t -> dirty:Bitset.t -> (int -> bool -> bool) option -> int

  (** [commit t v ~dirty] writes [v]'s cached move (only called on an
      enabled [v]) and returns whether the register physically changed;
      if so [v]'s closed neighbourhood is added to [dirty]. *)
  val commit : t -> int -> dirty:Bitset.t -> bool

  (** [overwrite t v s ~dirty] — a fault; [false] iff [s] is already
      [v]'s register (physically), else [v]'s closed neighbourhood is
      added to [dirty]. *)
  val overwrite : t -> int -> P.state -> dirty:Bitset.t -> bool

  (** [v]'s register, the register its last write replaced (read right
      after that write) and its cached move, boxed. *)
  val register : t -> int -> P.state

  val previous : t -> int -> P.state
  val move : t -> int -> P.state

  (** Register bits of [v], and (max, total) over all nodes. *)
  val bits : t -> int -> int

  val bits_summary : t -> int * int

  (** The live configuration, boxed. Callers may write a slot only to
      restore it before the next store call. *)
  val config : t -> P.state array

  (** The configuration's fingerprint for the watchdog (only read on a
      [watched] store), and an exact serialization that verifies a
      repeated fingerprint. *)
  val fingerprint : t -> int

  val serialize : t -> string

  (** [legal t g near] — [P.is_legal] on the live registers. With
      [Some near], the caller vouches that every per-node legality
      conjunct outside [near] held before the run and reads nothing the
      run changed, so a store with a per-node certificate checks only
      [near] (plus its non-local conjuncts). *)
  val legal : t -> Repro_graph.Graph.t -> Bitset.t option -> bool

  (** Undo the run's writes to the caller's registers (the loop calls
      it when the run raises). *)
  val rollback : t -> unit
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
  }

  val initial : Repro_graph.Graph.t -> St.P.state array
  val adversarial : Random.State.t -> Repro_graph.Graph.t -> St.P.state array
  val silent : Repro_graph.Graph.t -> St.P.state array -> bool

  (** [exec] runs the loop and returns the store with the counts,
      boxing nothing for the result; a raising run rolls the store back
      ({!STORE.rollback}) and re-raises. [run] is [exec] plus the boxed
      final configuration. *)
  val exec : (St.P.state, init:St.regs -> St.t * stats) runner

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
