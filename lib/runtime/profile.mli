(** Cheap per-run engine profiling counters.

    Answers "where do the constant factors go": how many guard
    evaluations the incremental executor performed versus moves it
    applied straight from its move cache, how many view slots were
    re-pointed, how often the enabled set churned, and a per-rule move
    breakdown (via {!Protocol.S.classify}).

    Pass a fresh {!t} to [Engine.run ~profile] and read it afterwards.
    It stays apart from the {!Events} stream because it counts engine
    work no event records (guard evaluations, view refreshes, wakeups,
    flushes), and because [bench/perf] reads its fields directly.
    Counting is plain mutable-int increments — cheap enough for
    benchmarking, and entirely absent when no profile is attached. *)

type t = {
  mutable moves : int;  (** register writes applied (cached-move hits) *)
  mutable guard_evals : int;  (** [P.step] evaluations (move-cache misses/refills) *)
  mutable refreshes : int;  (** view slots re-pointed to fresh registers *)
  mutable touches : int;  (** wakeups: nodes marked dirty by a write *)
  mutable flushes : int;  (** dirty-set drains *)
  mutable churn : int;  (** enabled-set membership transitions *)
  rules : (string, int ref) Hashtbl.t;  (** per-rule move counts *)
}

val create : unit -> t
val on_move : ?rule:string -> t -> unit
val on_guard : t -> unit
val on_refresh : t -> unit
val on_touch : t -> unit
val on_flush : t -> unit
val on_churn : t -> unit

(** Per-rule move counts, sorted by descending count then name. *)
val rule_counts : t -> (string * int) list

(** [hit_rate t] — [moves / (moves + guard_evals)]: the fraction of
    scheduler picks served by the move cache without re-evaluating the
    guard. [0.] before any activity. *)
val hit_rate : t -> float

val pp : Format.formatter -> t -> unit
