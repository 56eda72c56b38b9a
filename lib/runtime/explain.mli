(** Convergence narratives from {!Events} traces.

    Takes a trace's meta header and events (as {!Events.parse} reads
    them back from the JSONL that [Engine.run ~events] writes through a
    {!Events.stream} sink, or straight from a ring) and renders an
    explanation of {e how} the run converged: per-rule move breakdown,
    Φ trajectory milestones, the hottest nodes, the activation DAG's
    shape, and — for chaos traces — one causal-cone summary per fault
    injection (moves transitively caused by the injection, distinct
    nodes reached, measured cone radius in hops).

    Attribution walks the activation DAG: a move belongs to an
    injection's cone when some cause chain leads back to one of its
    [Fault] events; a move whose chains all terminate in moves without
    causes is {e root-spontaneous} (enabled by the initial
    configuration). Fault and churn events at the same round form one
    injection — service-mode topology edits ([Churn]) are DAG sources
    exactly like register corruptions, so recovery moves are attributed
    to the edit that caused them.
    Cone radii need the graph; they are computed when the trace's meta
    header carries an ["edges"] list (the CLI writes one). *)

(** Per-injection causal cone. *)
type cone = {
  injection_round : int;
  injected : int list;  (** corrupted nodes, sorted *)
  attributed_moves : int;
  cone_nodes : int list;  (** distinct movers in the cone, sorted *)
  cone_radius : int option;  (** max hops from the injected set; needs meta edges *)
}

type report = {
  header : (string * Metrics.Json.t) list;
  total_moves : int;
  total_faults : int;
  total_churns : int;
  total_rounds : int;  (** highest round index seen *)
  distinct_movers : int;
  rule_breakdown : (string * int) list;  (** descending count; "?" = untagged *)
  phi_milestones : (int * int) list;  (** (round, Φ) — first, decade crossings, last *)
  hot_nodes : (int * int) list;  (** (node, moves), descending, top-k *)
  cause_edges : int;
  root_spontaneous : int;  (** moves with an empty transitive fault set *)
  fault_attributed : int;
  max_chain : int;  (** longest cause chain (DAG depth), 1 = isolated move *)
  cones : cone list;
}

(** [analyze meta events] — one pass over [events] in id order (a
    trace's line order). [top] (default 10) bounds [hot_nodes]. *)
val analyze :
  ?top:int -> (string * Metrics.Json.t) list option -> Events.event list -> report
val pp_text : Format.formatter -> report -> unit
val to_text : report -> string

(** Self-contained single-file HTML (inline CSS/SVG, no external
    assets): the same content as {!to_text} plus a Φ sparkline and
    per-rule bars. *)
val to_html : report -> string
