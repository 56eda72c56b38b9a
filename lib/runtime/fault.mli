(** Transient-fault injection (Section II-A: a fault corrupts the register
    of one or more nodes; identities and edge weights are incorruptible).

    Two layers:

    - the classic one-shot corruptors {!corrupt} / {!corrupt_nodes}
      (experiment E8's original shape: random registers, injected once);
    - structured {!Plan}s — {e which} nodes ({!Plan.target}), {e what} is
      written ({!Plan.payload}) and {e when} ({!Plan.timing}) — consumed
      by the chaos campaign ({!Chaos}, [repro_cli chaos]) and the
      engine's [?adversary] round-boundary hook for mid-execution
      injection. *)

(** [corrupt rng ~random_state g states ~k] returns a copy of [states]
    with [min k n] distinct random nodes' registers replaced by arbitrary
    values. [k <= 0] is a no-op copy (no RNG draws). *)
val corrupt :
  Random.State.t ->
  random_state:(Random.State.t -> Repro_graph.Graph.t -> int -> 'state) ->
  Repro_graph.Graph.t ->
  'state array ->
  k:int ->
  'state array

(** [pick_nodes rng ~n ~k] — [k] distinct uniform node ids out of
    [0..n-1], sorted. Exactly the draw {!corrupt} performs internally;
    exposed so callers that must {e know} which nodes a random fault
    hit (e.g. to attribute recovery moves in an event trace) can pick
    first and then call {!corrupt_nodes}, consuming the same RNG
    stream. *)
val pick_nodes : Random.State.t -> n:int -> k:int -> int list

(** [corrupt_nodes rng ~random_state g states nodes] corrupts exactly the
    given nodes, deduplicated (each register is re-drawn once however
    often its id is listed).
    @raise Invalid_argument on an out-of-range node id. *)
val corrupt_nodes :
  Random.State.t ->
  random_state:(Random.State.t -> Repro_graph.Graph.t -> int -> 'state) ->
  Repro_graph.Graph.t ->
  'state array ->
  int list ->
  'state array

(** [bitflip rng s] is [s] with a single bit flipped: a uniformly chosen
    immediate (int-like) field reachable in the register's runtime
    representation gets one of its low 16 bits toggled;
    the blocks along the path are copied, the rest is shared. Registers
    made of ints, bools, options, arrays, tuples and records — every
    register type in this repository — are covered; strings, floats and
    closures are skipped (a register consisting solely of those is
    returned unchanged). Unlike {!corrupt}'s uniform re-draw, the result
    is one bit of Hamming distance away from the original encoding — the
    classic memory-fault model. *)
val bitflip : Random.State.t -> 'state -> 'state

(** Structured fault campaigns: target x payload x timing, with a
    parseable grammar ["TARGET/PAYLOAD@TIMING"] used by
    [repro_cli chaos --plans]. Payload defaults to [randomize], timing to
    [silence]; e.g. ["random:3"], ["root/bitflip"],
    ["deepest/stale:2@silence"], ["random:2/randomize@periodic:5"]. *)
module Plan : sig
  type target =
    | Random_nodes of int  (** [random:K] — K distinct uniform nodes *)
    | Nodes of int list  (** [nodes:1+2+3] — exactly these nodes *)
    | Root  (** [root] — node 0, the stable root of every builder *)
    | Deepest  (** [deepest] — a node of maximum hop distance from 0 *)
    | Subtree
        (** [subtree] — a uniform node plus all its descendants in the
            canonical BFS tree rooted at 0 *)

  type payload =
    | Randomize  (** [randomize] — [P.random_state], the E8 model *)
    | Bitflip  (** [bitflip] — {!Fault.bitflip} on the current register *)
    | Stale of int
        (** [stale:D] — replay the register the node held D recorded
            rounds earlier (state-replay faults); falls back to
            [Randomize] when no history is available *)

  type timing =
    | At_silence  (** [silence] — inject once, into a silent configuration *)
    | Periodic of int  (** [periodic:R] — inject at every R-th round boundary *)
    | Poisson of float
        (** [poisson:RATE] — at each round boundary, inject with
            probability RATE (plus one forced injection at round 0) *)

  type t = { target : target; payload : payload; timing : timing }

  val make : ?payload:payload -> ?timing:timing -> target -> t

  (** Canonical grammar string, e.g. ["root/bitflip@silence"]. *)
  val name : t -> string

  val pp : Format.formatter -> t -> unit

  (** Parse one plan; inverse of {!name} (modulo defaults). *)
  val of_string : string -> (t, string) result

  (** Parse a comma-separated plan list. *)
  val parse_list : string -> (t list, string) result

  (** The default campaign matrix: one plan per corruption model. *)
  val defaults : t list
end

(** [select rng g target] resolves a target to a sorted, deduplicated
    node list on this topology.
    @raise Invalid_argument on out-of-range ids in {!Plan.Nodes}. *)
val select : Random.State.t -> Repro_graph.Graph.t -> Plan.target -> int list

(** [apply_plan rng ~random_state ?stale g states plan] resolves the
    plan's target and writes its payload, returning the injected nodes
    and the corrupted copy. [stale d] supplies the configuration recorded
    [d] rounds ago for {!Plan.Stale} payloads ([None] = unavailable).
    Timing is the {e caller}'s business: this function injects now. *)
val apply_plan :
  Random.State.t ->
  random_state:(Random.State.t -> Repro_graph.Graph.t -> int -> 'state) ->
  ?stale:(int -> 'state array option) ->
  Repro_graph.Graph.t ->
  'state array ->
  Plan.t ->
  int list * 'state array
