(** Structural validation of the repository's committed JSON artifacts
    and of {!Events} JSONL traces, against the schemas documented in
    OBSERVABILITY.md / PERFORMANCE.md.

    Backing for [repro_cli validate] and the [@schema] dune alias: a
    schema drift (a renamed field, a type change, a malformed trace)
    fails the smoke gate instead of silently breaking downstream
    consumers of [BENCH_repro.json] / [CHAOS_repro.json] / trace files.

    Each validator returns [Ok count] — the number of records checked —
    or [Error msg] locating the first violation. *)

(** [{"seed": int, "experiments": [{exp, algo, n, rounds, steps,
    max_bits, wall_ns, tier?} ...]}] — the bench regression artifact.
    [tier] is optional ("std" when absent) and must be one of "std"
    (the pinned repro experiments) or "big" (the scaling tier, see
    SCALING.md and the [@bigbench] alias). *)
val validate_bench : Metrics.Json.t -> (int, string) result

(** [{"meta": {...}, "cells": [...], "summary": {...}}] — the chaos
    campaign artifact ({!Campaign}); each cell's identification,
    outcome, verdict and injection records are checked. *)
val validate_chaos : Metrics.Json.t -> (int, string) result

(** [{"meta": {..., "traces": [string...]}, "cells": [...],
    "summary": {...}}] — the service-mode churn artifact
    (SERVICE_repro.json, see EXPERIMENTS.md E13): each cell's
    identification, final topology, verdict, per-churn-event recovery
    records and degradation counters are checked. *)
val validate_service : Metrics.Json.t -> (int, string) result

(** Validate a whole JSONL trace from its file {e contents}: every line
    parses ({!Events.parse}), and in line order event ids strictly
    increase whatever the kind, move steps strictly increase, rounds
    never decrease, nodes are non-negative, and every cause names an
    earlier fault, churn or move. The count is the number of event
    lines. *)
val validate_trace : string -> (int, string) result

(** Sniff which validator a file's contents call for: a JSONL trace
    (first line has an ["ev"] field), a bench artifact
    (["experiments"]), a service artifact (["cells"] plus a meta
    ["traces"] list) or a chaos artifact (any other ["cells"]). *)
val sniff : string -> [ `Bench | `Chaos | `Service | `Trace ] option
