(** Service mode: a long-lived tree under topology churn.

    One {e episode} = stabilize a builder from an adversarial
    configuration, then stream a churn trace ({!Churn.t}) against the
    live topology. Each edit goes through {!Topology.apply}; surviving
    nodes keep their registers verbatim, joined nodes boot from
    [P.random_state] (adversarial boot — stabilization owes them
    nothing), and the builder re-stabilizes while reads are served from
    the {e committed} label snapshot ({!Snapshot} — the flattened tree
    taken at the last silent legal configuration).

    {b Degradation ladder.} Every recovery runs under a {!Watchdog},
    which the engine itself observes at every round boundary
    ([Engine.run ~watchdog]; its clock counts rounds over the whole
    episode).
    The first attempt gets the timing policy's budget ([every:R] = an
    R-round deadline; [silence] = the full retry budget); when it
    fails — budget exhausted, livelock or stall tripped, or the run
    raised — the ladder engages, all rungs counted per event:
    bounded {e retries} under the same daemon, one {e escalation} to
    the fallback daemon, and a full {e restart} from an adversarial
    configuration as last resort. A run that raises is contained and
    counted as a {e crash}; the episode continues with the ladder from
    the registers the crashed segment started from. The crashed
    segment's rounds elapsed: they count in [rounds] and [gap] (the
    next segment starts at the last round boundary it reached, as on
    the trace), and its boundaries' reads are served once. Its writes
    are rolled back and do {e not} count in [steps], though the trace
    shows them as moves.
    When the ladder is exhausted the event is recorded unrecovered and
    the next edit lands on the live (non-silent) configuration — the
    degraded-but-alive regime, not an abort.

    {b Reads.} At every round boundary of a recovery,
    {!queries_per_round} deterministic {e pair} queries [(v, u)] are
    answered from the committed snapshot: parent, root, tree degree,
    ancestry, nearest common ancestor, and tree route length (see
    {!Snapshot.answer}). The pairs depend on the round number alone and
    a recovery never commits, so they are served after each engine
    segment, one batch per round boundary it reached ({!Watchdog.observed}),
    with no per-round hook. When the event closes, the new configuration
    is committed and each answer is re-evaluated against it; answers
    that differ (or name a node that left) count as {e stale} — the
    staleness window made concrete.

    {b Engines.} {!Make} drives the boxed {!Repro_runtime.Engine};
    {!Make_packed} drives the struct-of-arrays
    {!Repro_runtime.Engine_packed} for fixed-width builders — registers
    live in the int bank across the whole episode and churn migration
    copies surviving lanes verbatim. Both run the same executor loop
    with the same hooks (events with provenance, the loop monitor), so
    episodes, reports and event traces are identical between the two
    on shared seeds (pinned by the service equivalence suite).

    {b Warm start} ({!Make_packed} only). When an edit lands on a silent
    legal configuration, the event's first recovery run probes only the
    seeds ({!Repro_runtime.Engine_packed.Make.seeds}: the nodes whose
    views the edit changed, plus those a change of n can flip) and
    re-checks legality only near the seeds and the nodes it wrote;
    retries, escalations and restarts scan in full. The trajectory is
    the cold one (qcheck-pinned in test_service), so reports do not
    change. With [watch_phi] off and no loop monitor, a recovery then
    boxes no register.

    {b Loop-freedom monitor.} For builders declaring [loop_free], every
    register write during churn recovery is checked: if the writer's
    new parent chain leads back to itself, the move closed a cycle — a
    violation of the paper's malleable-PLS loop-freedom guarantee. It
    is recorded, never fatal. The monitor is an [on_step] hook attached
    only during churn recovery of a [loop_free] builder, so other
    packed episodes never re-box a register per write. *)

(** What the service layer needs on top of {!Repro_runtime.Protocol.S}:
    a parent projection for serving reads, and whether the builder
    claims loop-freedom (arms the loop monitor). *)
module type TREE_PROTOCOL = sig
  include Repro_runtime.Protocol.S

  (** The parent link encoded in a register ([-1] or the node itself
      for "no parent"/root; arbitrary values tolerated). *)
  val parent_of : state -> int

  (** Whether the builder's moves are expected to preserve the tree
      invariant between edits (arms the loop monitor). *)
  val loop_free : bool
end

(** The same, over a fixed-width packed protocol (for {!Make_packed}). *)
module type PACKED_TREE_PROTOCOL = sig
  include Repro_runtime.Protocol.PACKED

  val parent_of : state -> int
  val loop_free : bool

  (** The lane that holds [parent_of] verbatim: a commit copies it
      instead of unpacking every register. *)
  val parent_lane : int
end

(** Per-churn-event accounting. *)
type event_outcome = {
  op : string;  (** grammar spelling of the edit *)
  apply_round : int;  (** cumulative round at which the edit landed *)
  gap : int option;  (** rounds from the edit to silent+legal; [None] = never *)
  steps : int;
      (** register writes spent on this event's recovery, less those of
          crashed segments (rolled back) *)
  queries : int;  (** pair reads served from the committed snapshot *)
  stale : int;  (** of those, answers the recovery then contradicted *)
  violations : int;  (** loop-monitor violations (loop-free builders) *)
  retries : int;
  escalations : int;
  restarts : int;
  crashes : int;
  recovered : bool;
}

type report = {
  trace : Churn.t;
  base_rounds : int;  (** initial stabilization, adversarial start *)
  base_steps : int;
  rounds : int;  (** cumulative rounds over the whole episode *)
  steps : int;
  events : event_outcome list;  (** chronological, one per edit *)
  recovered : bool;  (** final configuration silent and legal *)
  verdict : Repro_runtime.Watchdog.verdict;
  n_final : int;
  m_final : int;
  max_bits : int;
}

(** {2 The degradation ladder's policy, the same for every episode} *)

(** Round budget of every ladder rung past the first attempt: 2000. *)
val retry_budget : int

(** Same-daemon retries before the ladder escalates: 2. *)
val max_retries : int

(** Pair reads served at every round boundary of a recovery: 2. *)
val queries_per_round : int

(** The episode's round cap: 20_000, beside a fixed cap of 2_000_000
    steps; a ladder rung never runs past them. *)
val max_rounds : int

module Make (P : TREE_PROTOCOL) : sig
  module E : module type of Repro_runtime.Engine.Make (P)

  (** [run g ~sched ~fallback rng trace] — run one service episode.

      The ladder runs at {!retry_budget}, {!max_retries} and
      {!queries_per_round}. [watch_phi] feeds the live potential to the
      watchdog's stall detector (leave off for expensive potentials);
      the watchdog runs with its default thresholds. The episode runs
      within {!max_rounds}. The watchdog keeps the episode's round
      clock ({!Watchdog.last_round}): the report's rounds, an event's
      [apply_round] and [gap] and the budgets all read it.

      An [events] sink receives the full causal trace on one
      timeline: base stabilization, one [Churn] event per node whose
      view an edit changed, and every recovery move — seeded so moves
      chain back to the edit that caused them, mirroring the chaos
      harness's fault attribution. Every segment continues from the
      sink's clock, so a retry after a contained crash follows the
      crashed segment's rounds and steps. Sinks consume no RNG draws;
      episodes are bit-identical with or without one.

      @raise Invalid_argument if an explicit op list in [trace] fails
      {!Topology.check} (canned generators are valid by
      construction). *)
  val run :
    ?watch_phi:bool ->
    ?events:Repro_runtime.Events.t ->
    Repro_graph.Graph.t ->
    sched:Repro_runtime.Scheduler.t ->
    fallback:Repro_runtime.Scheduler.t ->
    Random.State.t ->
    Churn.t ->
    report
end

(** {!Make} on the struct-of-arrays engine, for fixed-width builders:
    registers stay in the packed int bank for the whole episode —
    engine segments mutate it in place, churn migration copies
    surviving lanes verbatim ({!Topology.migrate_bank}) and boots
    joiners adversarially in-bank — so big-n episodes never round-trip
    the configuration through boxed states, and a recovery after a
    clean event is warm-started. Same episode semantics, RNG draw order,
    reports and event traces as {!Make}: the watchdog reads the bank's
    fingerprint (and re-boxed registers only to watch Φ), the loop
    monitor and the event sink observe re-boxed registers. A run that
    raises leaves the bank as it was (run_bank's journal). *)
module Make_packed (P : PACKED_TREE_PROTOCOL) : sig
  module E : module type of Repro_runtime.Engine_packed.Make (P)

  val run :
    ?watch_phi:bool ->
    ?events:Repro_runtime.Events.t ->
    Repro_graph.Graph.t ->
    sched:Repro_runtime.Scheduler.t ->
    fallback:Repro_runtime.Scheduler.t ->
    Random.State.t ->
    Churn.t ->
    report
end
