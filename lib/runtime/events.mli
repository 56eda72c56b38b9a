(** The engine's one recording: structured per-move event traces with
    causal provenance, the per-round series folded from them, and the
    JSONL trace format.

    {b The format.} Each trace line kind ([move], [fault], [churn],
    [round]: an ["ev"] tag, the event's ["id"], then the kind's fields)
    and the series' sample and summary are declared once in events.ml
    as {!Artifact} field lists; the stream writer, {!event_json},
    {!series_json} and the one reader, {!parse}, derive from them. A
    [meta] line is the ["ev"] tag and the caller's fields
    (OBSERVABILITY.md shows each line).

    The engine ({!Engine.Make.run}) emits one {!event} per register
    write (kind [Move]), per adversarial corruption (kind [Fault]) and
    per round boundary (kind [Round]) into a {!t} sink. Three sink
    shapes keep big-n runs O(window) in memory:

    - {!ring} — a bounded in-memory window (oldest events dropped);
    - {!stream} — newline-delimited JSON ([JSONL]) written to a channel
      as events happen, nothing retained;
    - {!series} — no events retained or written, only the series.

    {b The series.} Every sink folds its own events into the per-round
    series the paper's claims are judged on (poly(n) rounds,
    PLS-bounded registers, a potential that decreases to 0): one
    {!sample} per [Round] event, whose [writes] counts the [Move] events
    since the previous one. {!series_json} is what [repro_cli run
    --metrics-out] writes.

    {b Provenance.} A [Move] event carries [causes]: the ids of the
    events whose writes (re-)enabled this node since it was last
    disabled (or since its own previous move) — the incremental
    executor's wakeup path, surfaced. Causes always precede the event
    and are edge-adjacent (the writing node is the mover itself or a
    graph neighbor), so the events form an activation DAG. A move with
    no causes is {e root-spontaneous}: it was enabled by the initial
    configuration, not by any observed write. [Fault] events are DAG
    sources; recovery moves reached from one through cause edges are
    its measured causal cone (see [Explain] and OBSERVABILITY.md).

    Ids are monotone and owned by the sink, and so is the timeline: one
    sink can span several engine runs (a [--faults] run, a chaos or a
    service episode) and each run attached to it numbers its rounds and
    steps from the sink's clock ({!last_round}, {!writes_total}), so
    the runs share one timeline without collisions. *)

type kind =
  | Move of {
      node : int;
      step : int;  (** 1-based global step count at this write *)
      round : int;
      rule : string option;  (** {!Protocol.S.classify} tag *)
      bits_before : int;
      bits_after : int;
      causes : int list;  (** ids of the enabling events, oldest first *)
    }
  | Fault of { node : int; round : int }
  | Churn of { node : int; round : int; op : string }
      (** A topology edit touching [node] (one event per affected
          endpoint); [op] is the churn grammar spelling, e.g.
          ["del:2+5"]. Emitted by the service layer; like [Fault], a
          DAG source for recovery attribution. *)
  | Round of { round : int; enabled : int; bits : int * int; phi : int option }
      (** A round boundary (round 0 = the initial configuration):
          enabled nodes, (max, total) register bits of the
          configuration, and Φ when the sink asks for it. *)

type event = { id : int; kind : kind }

type t

(** [ring ()] — bounded in-memory sink. [capacity] (default 65536) is
    the number of retained events; older ones are dropped (the total
    count is still tracked). [record_phi] (default [false]) asks the
    engine to evaluate the protocol potential at every round
    boundary. *)
val ring : ?capacity:int -> ?record_phi:bool -> unit -> t

(** [stream oc] — streaming JSONL sink: every event (and the optional
    {!meta} header) is written to [oc] as one compact JSON object per
    line; no event is retained in memory. The caller owns the
    channel. *)
val stream : ?record_phi:bool -> out_channel -> t

(** [series ()] — a sink that keeps only the per-round series. Unlike
    the trace sinks, [record_phi] defaults to [true]: Φ is one of the
    three quantities the series exists for. *)
val series : ?record_phi:bool -> unit -> t

val wants_phi : t -> bool

(** [meta t fields] — a trace header (kind ["meta"]) carrying run
    identification: algo, graph family, [n], seed… and, for
    [Explain]'s causal-cone radii, the edge list under ["edges"].
    Streamed sinks write it immediately; the others ignore it. *)
val meta : t -> (string * Metrics.Json.t) list -> unit

(** The ["edges"] member of a meta header, [[[u, v, w], ...]] in
    {!Repro_graph.Graph.edges} order. *)
val edges_meta : Repro_graph.Graph.t -> (string * Metrics.Json.t) list

(** The graph a meta header names through its ["n"] and ["edges"]
    members; [None] when either is missing or ill-typed, or the edges
    do not make a graph on [n] nodes (out of range, self-loop,
    duplicate, or not [[u, v, w]]). *)
val meta_graph : (string * Metrics.Json.t) list -> Repro_graph.Graph.t option

val emit_move :
  t ->
  node:int ->
  step:int ->
  round:int ->
  ?rule:string ->
  bits_before:int ->
  bits_after:int ->
  causes:int list ->
  unit ->
  int
(** Returns the fresh event's id (to thread into later causes). *)

(** A [Fault] or [Churn] event at the sink's current round
    ({!last_round}). *)
val emit_fault : t -> node:int -> int

val emit_churn : t -> node:int -> op:string -> int

(** [emit_sources sink nodes ~emit] — for a perturbation made outside
    the engine (a corruption or a topology edit): emit one source event
    per node of [nodes], in order, through [emit sink v], and record
    them in the sink in place of any not yet taken. The next engine run
    attached to it takes them ({!take_sources}). No-op without a sink;
    draws no randomness. *)
val emit_sources : t option -> int list -> emit:(t -> int -> int) -> unit

(** [take_sources t g] — what an engine run on [g] does at its start:
    forget the sources {!emit_sources} recorded and return the causes
    of the nodes the run's initial configuration enables, mapping every
    node to the ids of the sources in its closed neighbourhood in [g]
    (the configuration before the perturbation was silent). [None] when
    no sources are pending. *)
val take_sources : t -> Repro_graph.Graph.t -> (int -> int list) option

val emit_round : t -> round:int -> enabled:int -> bits:int * int -> phi:int option -> unit

(** Events currently retained, oldest first ([[]] for stream and series
    sinks). *)
val events : t -> event list

val total : t -> int
val retained : t -> int

(** {2 The clock} *)

(** The round of the last [Round] event (0 before any). *)
val last_round : t -> int

(** The [Move] events so far. *)
val writes_total : t -> int

(** {2 The per-round series} *)

type sample = {
  round : int;
  enabled : int;  (** nodes enabled at this round boundary *)
  writes : int;  (** [Move] events since the previous round boundary *)
  writes_total : int;  (** [Move] events up to this boundary *)
  max_bits : int;  (** max register size over the configuration *)
  total_bits : int;  (** summed register sizes of the configuration *)
  phi : int option;  (** protocol potential, when recorded *)
}

(** One sample per [Round] event, in order. *)
val samples : t -> sample list

(** The rounds where [Φ] was recorded, as [(round, phi)] pairs. *)
val phi_series : t -> (int * int) list

(** [{"meta": {..}, "rounds": [..], "summary": {..}}]: [rounds] is
    {!samples}; [summary] carries the last round, [writes_total] (every
    [Move] event, including moves after the last round boundary of a
    run cut short), the max register bits and the first and last
    recorded [Φ]. [meta] is caller-supplied run identification. *)
val series_json : ?meta:(string * Metrics.Json.t) list -> t -> Metrics.Json.t

(** A one-line summary (rounds, writes, bits, phi range). *)
val pp_series : Format.formatter -> t -> unit

(** {2 The trace format} *)

(** One event as the JSON object the JSONL stream writes. *)
val event_json : event -> Metrics.Json.t

(** [parse contents] — the trace's one reader, behind both
    [repro_cli validate] and [repro_cli explain]: the meta header (the
    last one, if several) and the events of a whole JSONL trace, in
    line order. Each line is checked against its kind's declared
    fields, and the events against the timeline: in line order ids
    strictly increase whatever the kind, move steps strictly increase,
    rounds never decrease, nodes are non-negative, and every cause
    names an earlier fault, churn or move. [Error] is
    ["line L: MESSAGE"], L 1-based: [not valid JSON], a field error
    ({!Artifact.read}: [missing field "node"], [field "step" is not an
    int], [field "bits" is not an int pair], [field "causes" contains
    a non-int], [unknown ev "KIND"]) or a timeline error
    ([event id I not increasing], [event I: step S after step S'],
    [event I: round R after round R'], [event I: negative node V],
    [event I: a cause is no earlier fault, churn or move]). *)
val parse :
  string -> ((string * Metrics.Json.t) list option * event list, string) result
