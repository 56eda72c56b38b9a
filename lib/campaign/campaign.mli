(** The campaign matrix driver — builders × perturbations × daemons ×
    seeds — and the chaos campaign on top of it (fault plans as the
    perturbation axis; {!Service_campaign} runs churn traces through
    the same driver).

    Every cell is hermetic: its [Random.State] is derived from
    [(seed_base, algo, point, daemon, n, seed_index)] and pins the
    topology, the initial configuration, every daemon pick and every
    fault or churn coin — which is what lets {!run_matrix} farm cells
    out to a {!Repro_runtime.Pool} and still return a byte-identical
    artifact at any [--jobs]. *)

(** One finished cell, in plain data (functor-free). *)
type cell = {
  algo : string;
  plan_name : string;
  sched_name : string;
  seed_index : int;  (** 1-based seed number within the cell's sweep *)
  n : int;
  m : int;
  base_rounds : int;
  rounds : int;
  steps : int;
  silent : bool;
  legal : bool;
  recovered : bool;
  verdict : string;
  max_bits : int;
  injections : Repro_runtime.Chaos.injection list;
}

(** {2 The generic matrix driver} *)

(** A cell coordinate: the builder, the perturbation (a fault plan or
    a churn trace, by name), the daemon, and the 1-based seed number
    within the cell's sweep. *)
type key = {
  builder : Builders.t;
  point : string;
  sched_name : string;
  seed_index : int;
}

(** [run_matrix ... ~ns ~axis ~points ~daemons cell] — builders ×
    sizes × perturbations × daemons × seeds on the pool. Cells come
    back in canonical order (builders, then sizes, then points, then
    daemons, then seed indices, each in the order given) regardless of
    worker interleaving. Each cell runs [cell key p sched g rng events]
    with its own RNG, seeded [[| seed_base; Hashtbl.hash (algo, point,
    sched_name); n; seed_index |]] for its size [n], which first draws
    the topology ([gen rng ~n]).

    [?trace_dir] streams one {!Repro_runtime.Events} JSONL trace per
    cell into the given (existing) directory, named
    [<algo>__<point>__<sched>__s<seed>.jsonl] (coordinates collapsed
    to filename-safe characters; the size is not in the name, so trace
    one size at a time), and hands the sink to [cell]. Its
    meta header names [algo], then [axis] (the point's name), [sched],
    the [sched_meta sched_name] fields, [seed], [n], [m] and [edges].
    Per-round Φ is recorded only for builders with
    {!Builders.cheap_phi}. Sinks draw no randomness, so traced and
    untraced campaigns yield identical cells. *)
val run_matrix :
  pool:Repro_runtime.Pool.t ->
  gen:(Random.State.t -> n:int -> Repro_graph.Graph.t) ->
  ns:int list ->
  seeds:int ->
  seed_base:int ->
  algos:Builders.t list ->
  axis:string ->
  points:(string * 'p) list ->
  daemons:(string * Repro_runtime.Scheduler.t) list ->
  ?sched_meta:(string -> (string * Repro_runtime.Metrics.Json.t) list) ->
  ?trace_dir:string ->
  (key ->
  'p ->
  Repro_runtime.Scheduler.t ->
  Repro_graph.Graph.t ->
  Random.State.t ->
  Repro_runtime.Events.t option ->
  'c) ->
  'c list

(** {2 The chaos matrix} *)

(** {!run_matrix} at one size over fault plans (axis ["plan"]): one
    {!Repro_runtime.Chaos} episode per cell under the watchdog's default
    thresholds and the episode budgets
    ({!Repro_runtime.Chaos.max_rounds},
    {!Repro_runtime.Chaos.max_injections}), watching Φ only for
    builders with {!Builders.cheap_phi}. *)
val chaos_matrix :
  pool:Repro_runtime.Pool.t ->
  gen:(Random.State.t -> n:int -> Repro_graph.Graph.t) ->
  n:int ->
  seeds:int ->
  seed_base:int ->
  algos:Builders.t list ->
  plans:Repro_runtime.Fault.Plan.t list ->
  daemons:(string * Repro_runtime.Scheduler.t) list ->
  ?trace_dir:string ->
  unit ->
  cell list

val failed : cell list -> int

(** One line naming a failing cell (full key, watchdog verdict,
    injection count); [repro_cli chaos] prints it for every cell that
    did not recover. *)
val failure_line : cell -> string

val csv_header : string
val csv_row : cell -> string

(** {2 The CHAOS_repro.json artifact}

    [{meta, cells, summary}], each cell with its [injections] records,
    declared once ({!Repro_runtime.Artifact}) in a pinned field order
    (the smoke gate compares artifacts byte-for-byte across [--jobs]).
    {!campaign_json} and {!validate} are derived from that
    declaration. *)

(** The bench tiers, ["std"] (the pinned repro cells) and ["big"] (the
    scaling tier): the values of a BENCH record's or a SERVICE cell's
    optional ["tier"] field. *)
val tiers : string list

(** The artifact; its meta writes the episode budgets
    ({!Repro_runtime.Chaos.max_rounds},
    {!Repro_runtime.Chaos.max_injections}). *)
val campaign_json :
  family:string ->
  n:int ->
  seeds:int ->
  seed_base:int ->
  cell list ->
  Repro_runtime.Metrics.Json.t

(** [repro_cli validate] on a chaos artifact: [Ok cells] or the first
    violation, e.g. [cell 3: injection 0: field "gap" is not an int or
    null]. *)
val validate : Repro_runtime.Metrics.Json.t -> (int, string) result
