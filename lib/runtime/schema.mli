(** The trace validator and the artifact sniffer behind
    [repro_cli validate]. The committed JSON artifacts are checked by
    their owners, each derived from the artifact's one declaration
    ({!Artifact}): BENCH by [Bench_record.validate] (bench/), CHAOS by
    [Campaign.validate] and SERVICE by [Service_campaign.validate]
    (lib/campaign/). *)

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
