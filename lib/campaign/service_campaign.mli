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
    the watchdog's default thresholds and the ladder's constants
    ({!Repro_service.Service.retry_budget}).
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
  ?trace_dir:string ->
  unit ->
  cell list

(** {2 The big serve-bench tier (serve [--big], the [@servebench] alias)} *)

(** Default sizes and builders of the big tier: n in 1e3/1e4/1e5 (the
    CLI clamps with [--big-nmax]), BFS and SPT. *)
val big_ns : int list

val big_algos : Builders.t list

(** [run_bench] — the big tier: one episode per builder x size x trace
    (synchronous daemon, random-connected graphs with m = 2n, one seed
    per cell), run in that order on the calling domain; cells carry
    [tier = "big"]. Untraced, so the fixed-width builders run on the
    packed service engine. *)
val run_bench :
  ns:int list ->
  algos:Builders.t list ->
  traces:Repro_service.Churn.t list ->
  seed_base:int ->
  max_rounds:int ->
  unit ->
  cell list

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
    summary}], the meta naming the churn traces and the ladder's
    constants, each cell carrying its final topology, verdict, the
    [totals] of its per-event counters and its per-event recovery
    records. {!campaign_json}, {!validate} and [bench-diff]'s reads
    ({!Fields}) are all derived from that declaration. *)

val campaign_json :
  family:string ->
  n:int ->
  seeds:int ->
  seed_base:int ->
  traces:Repro_service.Churn.t list ->
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
end

(** A whole SERVICE_repro.json document. *)
type artifact

(** Its ["cells"]: [Artifact.read] hands back each checked cell
    object. *)
val cells : (artifact, cell list, Repro_runtime.Metrics.Json.t list) Repro_runtime.Artifact.field
