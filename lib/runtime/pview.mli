(** The packed counterpart of {!View}: what a fixed-width protocol's
    [step_packed] reads (see {!Protocol.PACKED} and SCALING.md).

    Where a {!View.t} hands the guard boxed neighbor states, a [Pview.t]
    hands it the raw struct-of-arrays register bank and the graph's CSR
    adjacency: lane [f] of node [v]'s register is [bank.(f).(v)], and the
    focused node's neighbors are [col.(i)] for
    [i] in [row.(focus) .. row.(focus+1) - 1] (increasing id order, the
    same order {!View.t} presents), with weights aligned in [wgt].

    One [Pview.t] is allocated per run and reused for every guard probe:
    the engine sets [focus] and calls [step_packed], which either returns
    [false] (not enabled) or writes the packed move into [move] and
    returns [true]. Guards must treat everything except [move] as
    read-only and must not retain [move] across calls — the engine
    copies it out immediately. *)

type t = {
  n : int;  (** number of nodes *)
  words : int;  (** register width in lanes ([Protocol.PACKED.words]) *)
  row : int array;  (** CSR row pointers, length [n+1] *)
  col : int array;  (** CSR neighbor ids *)
  wgt : int array;  (** CSR edge weights, aligned with [col] *)
  bank : int array array;  (** [bank.(f).(v)] = lane [f] of node [v] *)
  move : int array;  (** scratch the guard writes its move into *)
  mutable focus : int;  (** the node whose guard is being evaluated *)
}

(** [of_graph g ~bank] wraps the graph's CSR arrays and a register bank
    (one length-n lane per word). @raise Invalid_argument on an empty
    bank or a lane of the wrong length. *)
val of_graph : Repro_graph.Graph.t -> bank:int array array -> t
