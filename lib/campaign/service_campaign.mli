(** The service-mode churn matrix: builders x churn traces x daemons x
    seeds, one {!Repro_service.Service} episode per cell, driven by the
    same {!Campaign.run_matrix} as the chaos matrix — the cell list is
    enumerated in canonical order and each cell is pinned by its own
    RNG, so the artifact (SERVICE_repro.json) is byte-identical at any
    [--jobs] count. Backing for [repro_cli serve] and the [@service]
    alias. *)

type cell = {
  algo : string;
  trace_name : string;
  sched_name : string;
  fallback_name : string;
  seed_index : int;
  n0 : int;  (** starting topology *)
  m0 : int;
  tier : string;  (** "std" (the churn matrix) or "big" (serve bench) *)
  qps : int option;  (** big tier only: measured snapshot-read throughput *)
  report : Repro_service.Service.report;
}

(** [fallback_for sched_name] — the escalation daemon for a cell: a
    daemon of a {e different} family than the primary (randomized
    central for deterministic/distributed primaries, distributed for
    the randomized central ones), so an escalation actually changes
    the adversary. *)
val fallback_for : string -> string * Repro_runtime.Scheduler.t

(** {!Campaign.run_matrix} over churn traces (axis ["trace"]; trace
    meta headers add each cell's ["fallback"] daemon): one
    {!Builders.serve} episode per cell, [tier = "std"] — so
    fixed-width builders run on the packed engine, traced or not, with
    the watchdog's default thresholds.
    @raise Invalid_argument on a builder without a parent projection
    ({!Builders.serves}). *)
val churn_matrix :
  pool:Repro_runtime.Pool.t ->
  gen:(Random.State.t -> n:int -> Repro_graph.Graph.t) ->
  n:int ->
  seeds:int ->
  seed_base:int ->
  algos:Builders.t list ->
  traces:Repro_service.Churn.t list ->
  daemons:(string * Repro_runtime.Scheduler.t) list ->
  max_rounds:int ->
  retry_budget:int ->
  max_retries:int ->
  queries_per_round:int ->
  ?trace_dir:string ->
  unit ->
  cell list

(** {2 The big serve-bench tier (serve [--big], the [@servebench] alias)} *)

(** Default sizes and builders of the big tier: n in 1e3/1e4/1e5 (the
    CLI clamps with [--big-nmax]), BFS and SPT. *)
val big_ns : int list

val big_algos : Builders.t list

(** [measure_qps pool snap ~queries ~query_jobs ~seed_base] — time
    [queries] random pair lookups ({!Repro_service.Snapshot.answer})
    against a committed snapshot, fanned out over [query_jobs] seeded
    worker streams on the pool; returns [(qps, checksum)]. The
    checksum folds every answer in canonical worker order, so it is
    deterministic for a fixed [query_jobs] at any pool size — only the
    wall-derived qps varies run to run. *)
val measure_qps :
  Repro_runtime.Pool.t ->
  Repro_service.Snapshot.t ->
  queries:int ->
  query_jobs:int ->
  seed_base:int ->
  int * int

(** The same batch against the pre-snapshot read path
    ({!Repro_service.Service.answer} parent-chase over the committed
    parents) — the O(n)-per-query baseline. *)
val measure_chase_qps :
  Repro_runtime.Pool.t ->
  Repro_service.Snapshot.t ->
  queries:int ->
  query_jobs:int ->
  seed_base:int ->
  int * int

(** One baseline comparison row (cells with [n <= baseline_nmax]). *)
type baseline = {
  b_algo : string;
  b_trace : string;
  b_n : int;
  b_snapshot_qps : int;
  b_chase_qps : int;
}

(** [run_bench] — the big tier: one episode per builder x size x trace
    (synchronous daemon, random-connected graphs with m = 2n, one seed
    per cell), each followed by a timed query batch against the final
    committed snapshot; cells carry [tier = "big"] and [qps]. Untraced,
    so the fixed-width builders run on the packed service engine. Episodes
    run sequentially on the calling domain — the query batches are
    what fans out over [pool] ([Pool.map] nested inside a pool worker
    would serialize them). *)
val run_bench :
  pool:Repro_runtime.Pool.t ->
  ns:int list ->
  algos:Builders.t list ->
  traces:Repro_service.Churn.t list ->
  seed_base:int ->
  queries:int ->
  query_jobs:int ->
  baseline_nmax:int ->
  max_rounds:int ->
  retry_budget:int ->
  max_retries:int ->
  queries_per_round:int ->
  unit ->
  cell list * baseline list

val csv_header : string
val csv_row : cell -> string

(** Whether the cell's episode ended silent and legal. *)
val recovered : cell -> bool

(** Cells that did not end silent and legal. *)
val failed : cell list -> int

(** One line naming a failing cell — the full key
    (algo/trace/sched/seed/tier) plus the watchdog verdict and how many
    of its churn events recovered; [repro_cli serve] prints this for
    every failing cell before exiting 1. *)
val failure_line : cell -> string

(** {2 The SERVICE_repro.json artifact}

    Declared once ({!Repro_runtime.Artifact}): [{meta, cells,
    summary}], the meta naming the churn traces, each cell carrying
    its final topology, verdict, [qps] on the big tier only, the
    [totals] of its per-event counters and its per-event recovery
    records. {!campaign_json}, {!validate} and [bench-diff]'s reads
    ({!Fields}) are all derived from that declaration. *)

val campaign_json :
  family:string ->
  n:int ->
  seeds:int ->
  seed_base:int ->
  traces:Repro_service.Churn.t list ->
  retry_budget:int ->
  max_retries:int ->
  queries_per_round:int ->
  cell list ->
  Repro_runtime.Metrics.Json.t

(** [repro_cli validate --kind service]: [Ok cells] or the first
    violation, e.g. [cell 0: event 1: field "recovered" is not a
    bool]. *)
val validate : Repro_runtime.Metrics.Json.t -> (int, string) result

(** The cell fields [bench-diff] reads, as declared. *)
module Fields : sig
  type 'r f := (cell, 'r, 'r) Repro_runtime.Artifact.field

  val algo : string f
  val trace : string f
  val n0 : int f
  val rounds : int f
  val steps : int f
  val max_bits : int f
  val qps : int option f
end

(** A whole SERVICE_repro.json document. *)
type artifact

(** Its ["cells"]: [Artifact.read] hands back each checked cell
    object. *)
val cells : (artifact, cell list, Repro_runtime.Metrics.Json.t list) Repro_runtime.Artifact.field
