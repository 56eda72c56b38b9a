(** The executor on a struct-of-arrays register bank, for fixed-width
    ({!Protocol.PACKED}) protocols.

    This is {!Engine.Loop} — the same loop, daemons, round accounting
    and hooks as {!Engine.Make}[.run] — over a packed store: the
    configuration lives in a flat int register bank ([P.words] lanes of
    length n), neighbor scans walk the graph's CSR arrays, and guard
    probes and commits go through one reusable {!Pview.t}, so with no
    hook attached the steady-state loop performs no allocation (pinned
    by [Gc.minor_words] tests; see SCALING.md for the memory model and
    the measured big-n tables). A synchronous round is the store's two
    sweeps ({!Engine.STORE}), each one loop over a bitset's words with
    the lanes and the journal, fingerprint and mirror decisions taken
    once per sweep. The equivalence suites pin steps,
    rounds, max_bits, final configurations and event traces identical
    to the boxed store and to [run_reference] on shared seeds.

    Every hook is supported. Those that read boxed states ([on_round],
    [on_step], [adversary], Φ for events or a Φ-watching watchdog, rule
    tags for [events] or [profile]) re-box registers: the whole
    configuration on the first read, then only the registers written
    since the previous read. Legality is decided on the lanes
    ({!Protocol.PACKED.certify}) and an attached watchdog reads an
    incrementally maintained fingerprint, so neither boxes. [max_bits]
    is the fixed register width [P.size_bits n _]. *)

module Make (P : Protocol.PACKED) : sig
  include Engine.S with type state = P.state

  (** {!Engine.stats}, with its fields in scope here. *)
  type stats = Engine.stats = {
    steps : int;
    rounds : int;
    silent : bool;
    legal : bool;
    max_bits : int;
  }

  (** [pack_bank ~n init] — the register bank encoding [init]: [P.words]
      int lanes of length [n], [bank.(f).(v)] = lane [f] of node [v]'s
      packed register.
      @raise Invalid_argument if [P.pack] returns the wrong width. *)
  val pack_bank : n:int -> P.state array -> int array array

  (** [run_bank g sched rng ~bank] — {!run} on a caller-owned register
      bank (as built by {!pack_bank}), {e mutated in place}: the final
      registers are left in [bank] and the result carries only the
      counts ({!Engine.stats}); nothing is boxed unless a hook asks. This
      is service mode's entry point — registers survive between
      recovery runs in the bank, churn migration copies surviving lanes
      verbatim, and a warm start ([?warm]) probes only the seeds. A run
      that raises leaves [bank] as it found it: the first write to each
      node journals its lanes, and the journal is replayed before the
      exception propagates.
      @raise Invalid_argument if [bank] is not [P.words] lanes of
      length [n]. *)
  val run_bank : (P.state, bank:int array array -> stats) Engine.runner

  (** [seeds bank g ~old_n affected] — the seeds of a warm start
      ([run_bank ~warm]) after an edit of a silent legal configuration
      into [bank] on [g]: [affected], the nodes whose views the edit
      changed (ids of [g]), plus, when the node count changed from
      [old_n], the closed neighbourhoods of the nodes whose lanes
      [P.n_sensitive] flags. Sorted, without duplicates. *)
  val seeds : int array array -> Repro_graph.Graph.t -> old_n:int -> int list -> int array

  (** The packed register store ([regs] = the bank and whether its
      writes are journaled), exposed for the store-level tests. A
      watched store's fingerprint is the sum over nodes of a hash of
      the node's id and lanes, computed by [create] and kept current by
      every write (pinned by test_packed against a fresh store). *)
  module Store :
    Engine.STORE with module P = P and type regs = int array array * bool
end
