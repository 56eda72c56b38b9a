(** The engine's one recording: structured per-move event traces with
    causal provenance, the per-round series folded from them, and the
    JSONL trace format (writer and parser).

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

    Ids are monotone and owned by the sink, so one sink can span several
    engine runs (as chaos episodes do) without collisions; callers
    shift rounds and steps so the runs share one timeline. *)

type kind =
  | Move of {
      node : int;
      step : int;  (** 1-based global step count at this write *)
      round : int;
      rule : string option;  (** {!Protocol.S.classify} tag *)
      bits_before : int;
      bits_after : int;
      dphi : int option;  (** potential delta, when the sink asks for it *)
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
    count is still tracked). [record_phi] asks the engine to evaluate
    the protocol potential at every round boundary; [move_phi]
    additionally at every move (expensive: one global [potential] per
    write) — both default to [false]. *)
val ring : ?capacity:int -> ?record_phi:bool -> ?move_phi:bool -> unit -> t

(** [stream oc] — streaming JSONL sink: every event (and the optional
    {!meta} header) is written to [oc] as one compact JSON object per
    line; no event is retained in memory. The caller owns the
    channel. *)
val stream : ?record_phi:bool -> ?move_phi:bool -> out_channel -> t

(** [series ()] — a sink that keeps only the per-round series. Unlike
    the trace sinks, [record_phi] defaults to [true]: Φ is one of the
    three quantities the series exists for. *)
val series : ?record_phi:bool -> unit -> t

val wants_phi : t -> bool
val wants_move_phi : t -> bool

(** [meta t fields] — record a trace header (kind ["meta"]) carrying
    run identification: algo, graph family, [n], seed… and, for
    [Explain]'s causal-cone radii, the edge list under ["edges"].
    Streamed sinks write it immediately; the others retain the last
    one. *)
val meta : t -> (string * Metrics.Json.t) list -> unit

val emit_move :
  t ->
  node:int ->
  step:int ->
  round:int ->
  ?rule:string ->
  bits_before:int ->
  bits_after:int ->
  ?dphi:int ->
  causes:int list ->
  unit ->
  int
(** Returns the fresh event's id (to thread into later causes). *)

val emit_fault : t -> node:int -> round:int -> int
val emit_churn : t -> node:int -> round:int -> op:string -> int

(** [emit_sources sink g nodes ~emit] — for a perturbation made
    outside the engine (a corruption or a topology edit): emit one source
    event per node of [nodes], in order, through [emit sink v], and
    return the recovery run's [init_causes], mapping every node to the
    ids of the events in its closed neighbourhood in [g]. [None] without
    a sink. Draws no randomness. *)
val emit_sources :
  t option -> Repro_graph.Graph.t -> int list -> emit:(t -> int -> int) -> (int -> int list) option

val emit_round : t -> round:int -> enabled:int -> bits:int * int -> phi:int option -> unit

(** Events currently retained, oldest first ([[]] for stream and series
    sinks). *)
val events : t -> event list

val meta_fields : t -> (string * Metrics.Json.t) list option
val total : t -> int
val retained : t -> int

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

(** [parse contents] — the meta header (the last one, if several) and
    the events of a whole JSONL trace, in line order. [Error] carries
    the 1-based line number and what was wrong with it. *)
val parse :
  string -> ((string * Metrics.Json.t) list option * event list, string) result
