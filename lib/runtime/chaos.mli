(** Chaos episodes: structured mid-run fault campaigns with recovery
    accounting.

    One {e episode} = stabilize a protocol from an adversarial
    configuration, then drive one {!Fault.Plan} against it and measure
    how the protocol absorbs each injection:

    - {b fault gap} — rounds from the injection back to a silent legal
      configuration;
    - {b containment radius} — the farthest (in hops from the injected
      nodes) any node that wrote during the recovery sits, i.e. how far
      the perturbation propagated;
    - {b touched} — how many distinct nodes wrote at all.

    [silence]-timed plans inject once into the stabilized configuration.
    [periodic:R] / [poisson:RATE] plans re-inject {e mid-execution}
    through the engine's [?adversary] round-boundary hook, up to
    [max_injections] total; when the protocol outruns the schedule and
    goes silent in between, the episode re-corrupts the silent
    configuration so the injection budget is always spent. Writes between
    consecutive injections are attributed to the earlier injection; an
    injection whose recovery was cut short by the next one gets
    [gap = None] unless the configuration was already silent and legal
    at that boundary.

    A {!Watchdog} with the given thresholds rides along on every engine
    run (reset at each injection) and aborts livelocked or stalled runs
    early through [?stop_when]; its classification lands in
    [episode.verdict]. *)

type injection = {
  round : int;  (** fault-phase round at which the fault landed *)
  nodes : int list;  (** corrupted nodes, sorted *)
  gap : int option;  (** rounds back to silent+legal; [None] = cut short *)
  radius : int option;
      (** containment radius; [None] when nothing wrote during recovery *)
  touched : int;  (** distinct nodes that wrote during recovery *)
}

(** [Make (P) (E)] — episodes of [P] on engine [E], either store:
    both run the same executor loop and hooks, so episodes are identical
    on either. *)
module Make (P : Protocol.S) (E : Engine.S with type state = P.state) : sig
  type episode = {
    plan : Fault.Plan.t;
    base_rounds : int;  (** rounds of the initial stabilization phase *)
    rounds : int;  (** cumulative fault-phase rounds *)
    steps : int;  (** cumulative fault-phase steps *)
    silent : bool;  (** fault phase ended silent *)
    legal : bool;  (** fault phase ended legal *)
    recovered : bool;  (** [silent && legal] after the full campaign *)
    verdict : Watchdog.verdict;
    injections : injection list;  (** chronological *)
    max_bits : int;  (** max register bits over the whole episode *)
  }

  (** [run_episode g sched rng plan] — run one episode. [watch_phi]
      (default [false]) feeds the live [P.potential] to the watchdog's
      stall detector; leave it off for protocols whose potential is
      expensive. Defaults: [max_steps] = 2_000_000, [max_rounds] =
      20_000, [stall_window] = 64, [cycle_repeats] = 3,
      [max_injections] = 3 (mid-run timings only; [silence] plans always
      inject exactly once).

      An [events] sink receives the full causal trace of the episode on
      one timeline: ids increase, rounds never decrease and steps
      strictly increase across the base run and every engine run of the
      fault phase (the fault phase is shifted by the base run's rounds
      and steps; [injection.round] stays fault-phase-relative). It
      holds the stabilization moves, one [Fault]
      event per corrupted register, and every recovery move with its
      enabling causes — silence-timed corruptions happen outside the
      engine, so the harness emits their fault events itself and seeds
      the recovery run's [init_causes] with them (the pre-fault
      configuration being silent makes the attribution exact). Recovery
      moves therefore chain back to the injection that caused them; see
      OBSERVABILITY.md. The sink consumes no RNG draws: campaign
      results are bit-identical with or without tracing. *)
  val run_episode :
    ?max_steps:int ->
    ?max_rounds:int ->
    ?stall_window:int ->
    ?cycle_repeats:int ->
    ?max_injections:int ->
    ?watch_phi:bool ->
    ?events:Events.t ->
    Repro_graph.Graph.t ->
    Scheduler.t ->
    Random.State.t ->
    Fault.Plan.t ->
    episode
end
