(** Declarations of the JSON the repository writes: the committed
    artifacts (BENCH_repro.json, CHAOS_repro.json, SERVICE_repro.json),
    the JSONL event trace and the metrics series ({!Events}).

    A record is declared once, next to the OCaml type it serialises, as
    its fields in written order: a name, a {!kind} and a getter. The
    writer ({!to_json}), the validator behind [repro_cli validate]
    ({!check}) and the readers ({!read}: [bench-diff], {!Events.parse})
    are derived from that list, so each field is named in one place. *)

(** ['w] is what the getter returns and the writer writes, ['r] what
    {!read} hands back. *)
type ('w, 'r) kind

type ('a, 'w, 'r) field
type 'a entry = F : ('a, 'w, 'r) field -> 'a entry
type 'a t = 'a entry list

val field : string -> ('w, 'r) kind -> ('a -> 'w) -> ('a, 'w, 'r) field
val int : (int, int) kind
val string : (string, string) kind
val bool : (bool, bool) kind

(** A string from the list; any other is rejected as
    [unknown NAME "VALUE"]. *)
val enum : string list -> (string, string) kind

(** [None] is written as [null]; absent or [null] reads as [None]. *)
val nullable : ('w, 'r) kind -> ('w option, 'r option) kind

(** [None] is left out; absent or [null] reads as [None], so artifacts
    from before the field existed still validate. *)
val optional : ('w, 'r) kind -> ('w option, 'r option) kind

(** A wrong scalar element is [field "NAME" contains a non-int]; an
    error in an object element is prefixed by NAME less its plural "s"
    and the index: [cell 3: injection 0: ...]. *)
val list : ('w, 'r) kind -> ('w list, 'r list) kind

(** Two values as a two-element list; anything else is
    [field "NAME" is not an int pair]. *)
val pair : ('w, 'r) kind -> ('w * 'w, 'r * 'r) kind

(** A nested object, unprefixed in errors; {!read} hands back the
    checked JSON object. *)
val obj : 'w t -> ('w, Metrics.Json.t) kind

val to_json : 'a t -> 'a -> Metrics.Json.t

(** The members {!to_json} writes, in order, for splicing into an
    object that is not one declaration. *)
val members : 'a t -> 'a -> (string * Metrics.Json.t) list

(** [read f j] — field [f] of object [j], checked in full against its
    kind: [missing field "NAME"], [field "NAME" is not an int] ([a
    string], [a bool], [a list]; [... or null] when nullable or
    optional), or an error from an enum or a nested value. *)
val read : ('a, 'w, 'r) field -> Metrics.Json.t -> ('r, string) result

(** Every field in order, first error wins; extra fields are allowed. *)
val check : 'a t -> Metrics.Json.t -> (unit, string) result

(** Sniff which validator a file's contents call for: a JSONL trace
    (first line has an ["ev"] field), a bench artifact
    (["experiments"]), a service artifact (["cells"] plus a meta
    ["traces"] list) or a chaos artifact (any other ["cells"]). *)
val sniff : string -> [ `Bench | `Chaos | `Service | `Trace ] option
