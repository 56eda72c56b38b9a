(** Fixed-capacity bitsets over node indices [0 .. capacity-1].

    The engine's hot path replaces its per-round [Hashtbl] bookkeeping
    with these: membership, insertion and removal are O(1) bit
    operations, a full sweep costs [O(capacity/32 + cardinal)], and the
    round-accounting intersection ("drop every pending node that is no
    longer enabled") is a word-wise AND. The cardinal is maintained
    incrementally so emptiness tests are O(1).

    All operations assume indices in range; out-of-range indices raise
    [Invalid_argument] via the underlying array bounds check. *)

type t

(** [create n] is an empty set with capacity [n]. *)
val create : int -> t

val capacity : t -> int
val mem : t -> int -> bool

(** [add t v] inserts [v]; a no-op if already present. *)
val add : t -> int -> unit

(** [remove t v] deletes [v]; a no-op if absent. *)
val remove : t -> int -> unit

(** [clear t] empties the set in [O(capacity/32)]. *)
val clear : t -> unit

val cardinal : t -> int
val is_empty : t -> bool

(** [iter f t] applies [f] to the members in increasing order, in
    [O(capacity/32 + cardinal)]: each member's index comes from a de
    Bruijn multiply on its word's lowest set bit. [f] must not mutate
    [t]. *)
val iter : (int -> unit) -> t -> unit

(** [fold f init t] folds over the members in increasing order. *)
val fold : ('a -> int -> 'a) -> 'a -> t -> 'a

(** Members in increasing order. *)
val to_list : t -> int list

(** [nth t k] is the [k]-th smallest member (0-based), in
    [O(capacity/32)]: whole words are skipped by popcount.
    @raise Invalid_argument if [k < 0] or [k >= cardinal t]. *)
val nth : t -> int -> int

(** [copy_from ~src ~dst] overwrites [dst] with [src]'s contents.
    @raise Invalid_argument on capacity mismatch. *)
val copy_from : src:t -> dst:t -> unit

(** [inter_inplace t other] removes from [t] every member absent from
    [other] — a word-wise AND.
    @raise Invalid_argument on capacity mismatch. *)
val inter_inplace : t -> t -> unit

(** {2 Word access}

    For member loops that cannot afford a closure call per member (the
    register stores' round sweeps): under dune's default profile no
    call into this module is inlined. Member [v] is bit [v land 31] of
    word [v lsr 5]; the bits above 31 of a word and those past
    [capacity] stay clear. *)

(** The backing words, shared with [t]. A caller that writes them
    directly restores the cardinal with {!recount} before the next
    other call on [t]. *)
val words : t -> int array

(** [bit_index b] — the index of the single set bit of [b], a power of
    two below [2^32] (one de Bruijn multiply). *)
val bit_index : int -> int

(** [set_word t w x] replaces word [w] by [x], keeping the cardinal. *)
val set_word : t -> int -> int -> unit

(** [recount t] recomputes the cardinal from the words, in
    [O(capacity/32)]. *)
val recount : t -> unit
