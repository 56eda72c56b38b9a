(** A work-distributing domain pool for campaign parallelism.

    Every evaluation campaign in this repo — the bench experiments, the
    chaos matrix, the CLI sweeps — is a bag of {e independent seeded
    cells}: each cell derives its own [Random.State] from
    [(seed_base, tag)], builds its own topology, and runs its own
    engine, touching no shared mutable state. A pool runs such a bag on
    a fixed set of worker {!Domain}s and hands the results back {e in
    submission order}, so a campaign's artifact is byte-identical
    regardless of how many workers raced over its cells (the caller
    merges per-cell results; workers never write shared state).

    Scheduling is work-stealing over an atomic cursor: workers (and the
    submitting domain, which participates) repeatedly claim the next
    unclaimed index, so long cells don't convoy behind a static chunking.

    Determinism contract: [map pool f xs] returns exactly
    [List.map f xs] — same values, same order — provided each [f x] is
    self-contained (its RNG, graphs, and observers are created inside
    the call). Exceptions restore the sequential semantics too: the
    first failing item {e in list order} has its exception re-raised in
    the submitter with its backtrace, even if a later item failed
    earlier in wall time.

    A pool with [jobs = 1] spawns no domains at all; [map] is literally
    [List.map], preserving today's exact sequential path. *)

type t

(** [max 1 (Domain.recommended_domain_count ())] — the default for every
    [--jobs] flag. *)
val default_jobs : unit -> int

(** [create ?jobs ()] spawns [jobs - 1] worker domains ([jobs] defaults
    to {!default_jobs}; values [< 1] are clamped to 1). The submitting
    domain acts as the final worker during {!map}, so total parallelism
    is [jobs]. *)
val create : ?jobs:int -> unit -> t

val jobs : t -> int

(** [map pool f xs] — parallel [List.map f xs] with the determinism
    contract above.

    Nested use is guarded: calling [map] from inside a task (or on a
    pool whose workers are already busy with another [map] from a
    different domain) falls back to sequential [List.map] instead of
    deadlocking on the fixed worker set. Lists of length [<= 1] never
    touch the workers. Raises [Invalid_argument] on a pool that has
    been {!shutdown}. *)
val map : t -> ('a -> 'b) -> 'a list -> 'b list

(** Join the worker domains. Idempotent; subsequent {!map} raises. *)
val shutdown : t -> unit

(** [with_pool ?jobs f] — [create], run [f], always [shutdown]. *)
val with_pool : ?jobs:int -> (t -> 'a) -> 'a
