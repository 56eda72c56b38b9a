(** Self-stabilizing global aggregation by hop-bounded propagation.

    Each node publishes a local {e base} value; the aggregate field
    stabilizes, at every node, to the network-wide best base value. The
    pair [(value, hops)] is maintained with the distance-vector fixpoint
    rule

    [agg(v) = best( (base v, 0), { (value u, hops u + 1) | u ∈ N(v), hops u + 1 < n } )]

    Stale values cannot survive: a value no longer backed by any base
    strictly increases its hop count around any supporting cycle, reaches
    the TTL [n], and dies (the same count-to-bound argument that kills
    fake roots in leader election). From any initial state the field
    converges in O(n) rounds, and it is silent once the bases are.

    The builders use one aggregate per decision: electing the root
    (min id), agreeing on the current improvement candidate, computing
    the tree degree Δ, etc. The ordering is supplied by the caller;
    [None] means "no value" and loses to everything. *)

type 'v t = { value : 'v; hops : int }

(** [target ~compare ~n ~base ~nbrs ~get] is the value the field should
    hold given the node's base and its neighbors' current fields, read
    as [get nbrs.(i)] (the caller's register array and a projection onto
    one aggregate field, so no per-call list or copy is built): the
    [compare]-smallest candidate, preferring smaller hop counts among
    equal values. [base = None] contributes nothing.

    Ties go to the first candidate: the base, then the neighbors in
    array order. A later candidate replaces the current one only when
    its value is strictly smaller, or equal at strictly fewer hops. *)
val target :
  compare:('v -> 'v -> int) ->
  n:int ->
  base:'v option ->
  nbrs:'a array ->
  get:('a -> 'v t option) ->
  'v t option

(** [step ~compare ~n ~base ~self ~nbrs ~get] — [Some fresh] when the
    field must change, [None] when it is already the fixpoint value
    ([target]'s result equal to [self] under [compare] and hop count). *)
val step :
  compare:('v -> 'v -> int) ->
  n:int ->
  base:'v option ->
  self:'v t option ->
  nbrs:'a array ->
  get:('a -> 'v t option) ->
  'v t option option

(** [equal eq a b]. *)
val equal : ('v -> 'v -> bool) -> 'v t option -> 'v t option -> bool
