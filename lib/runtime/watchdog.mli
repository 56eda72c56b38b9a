(** Convergence watchdog.

    Distinguishes {e why} a run failed to reach silence instead of
    reporting bare limit exhaustion. Two failure signatures are
    recognized online, cheaply enough to keep attached to every chaos
    episode:

    - {b livelock} — the execution revisits a configuration it has
      already been in (detected as a repeated configuration hash at
      round boundaries);
    - {b stalled potential} — the protocol exposes a potential [Φ]
      ({!Protocol.S.potential}) but no {e new minimum} of [Φ] has been
      observed for [stall_window] consecutive rounds.

    The engine observes it: hand it to a run as [Engine.run ~watchdog]
    and the executor feeds it at every round boundary — the register
    store's fingerprint as the hash (an incrementally maintained sum of
    per-node lane hashes on the packed bank, {!config_hash} of the
    boxed configuration otherwise), an exact serialization of the
    registers as the collision verifier, and the live [Φ] when the
    watchdog watches it — and stops the run at the first trip unless
    the watchdog is observe-only. Successive runs observing one
    watchdog share its round clock ({!last_round}). {!observe_round}
    stays public for callers that drive a watchdog by hand. After a
    mid-run fault injection call {!reset} — the old hashes and the old
    [Φ] floor describe a configuration the fault just destroyed. *)

type verdict =
  | Converged  (** the run reached silence *)
  | Livelock of { round : int; period : int }
      (** a configuration recurred [cycle_repeats] times; [period]
          is the index distance between the last two occurrences *)
  | Stalled of { round : int; window : int }
      (** [Φ] made no new minimum for [window] consecutive rounds *)
  | Exhausted of { rounds : int }
      (** limits hit with no recognized pattern; the run's own result
          carries its steps *)

val verdict_name : verdict -> string

(** Every name {!verdict_name} returns. *)
val verdict_names : string list
val pp_verdict : Format.formatter -> verdict -> unit

type t

(** [create ()] — fresh watchdog. [stall_window] (default 64) is the
    number of rounds without a new [Φ] minimum that counts as a stall;
    [cycle_repeats] (default 3) is how many times a configuration must
    be seen before declaring a livelock (3 tolerates the one benign
    collision the verifier can credit, see {!observe_round}).
    [watch_phi] (default [false]) makes an observing engine compute the
    live potential at every round boundary — on the packed engine that
    re-boxes the configuration, so leave it off for expensive
    potentials. An [observe_only] watchdog (default [false])
    classifies a run without stopping it. The chaos and service
    harnesses run with the default thresholds. *)
val create :
  ?stall_window:int ->
  ?cycle_repeats:int ->
  ?watch_phi:bool ->
  ?observe_only:bool ->
  unit ->
  t

(** [observe_round t ~round ~hash ~snap ~phi] — feed one round boundary:
    [hash] fingerprints the configuration (see {!config_hash}), [phi]
    is the live potential ([None] when the protocol defines none or it
    is undefined in this configuration — no stall tracking then).

    [snap] is the collision verifier: a thunk serializing the {e full}
    configuration (e.g. [fun () -> Marshal.to_string states []]). It is
    invoked only when [hash] has been seen before, and occurrences are
    then counted per distinct serialized configuration — so a hash
    collision between different configurations cannot accumulate into
    a false [Livelock] verdict, while a genuine recurrence trips at the
    [cycle_repeats]-th sighting. (A hash's first sighting is not
    serialized; it is credited to the first configuration that repeats
    the hash, so one collision can count once.) [round] becomes
    {!last_round}. *)
val observe_round :
  snap:(unit -> string) -> t -> round:int -> hash:int -> phi:int option -> unit

(** [reset t] forgets all hashes and the [Φ] floor; call immediately
    after a fault injection. A previously tripped verdict is cleared.
    The clock ({!last_round}) runs on. *)
val reset : t -> unit

(** The last round observed (0 before any observation) — the episode
    clock. An observing engine reads it once, at run start, and numbers
    its rounds from there: the run's round 0 is this round, the
    boundary the previous run ended on. Like the [Events] sink's clock
    ([Events.last_round]), it survives {!reset}. *)
val last_round : t -> int

(** Whether an observing engine feeds [Φ] (see {!create}). *)
val watches_phi : t -> bool

(** [stops t] — the watchdog has tripped and is not observe-only: an
    observing engine aborts the run where it stands. *)
val stops : t -> bool

(** Round boundaries observed since the last {!reset}. *)
val observed : t -> int

(** [tripped t] — the verdict detected so far, if any. Suitable as an
    early-abort predicate: [~stop_when:(fun () -> tripped w <> None)]. *)
val tripped : t -> verdict option

(** [verdict t ~silent] — final classification: [Converged] when
    [silent], else the tripped verdict, else [Exhausted]. *)
val verdict : t -> silent:bool -> verdict

(** [config_hash states] — order-sensitive fingerprint of a
    configuration, hashing every register with generous traversal
    limits (the default [Hashtbl.hash] depth cutoff would systematically
    collide deep registers). *)
val config_hash : 'a array -> int
