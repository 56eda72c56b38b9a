(** The executor on a struct-of-arrays register bank, for fixed-width
    ({!Protocol.PACKED}) protocols.

    This is {!Engine.Loop} — the same loop, daemons, round accounting
    and hooks as {!Engine.Make}[.run] — over a packed store: the
    configuration lives in a flat int register bank ([P.words] lanes of
    length n), neighbor scans walk the graph's CSR arrays, and guard
    probes and commits go through one reusable {!Pview.t}, so with no
    hook attached the steady-state loop performs no allocation (pinned
    by a [Gc.minor_words] test; see SCALING.md for the memory model and
    the measured big-n tables). The equivalence suites pin steps,
    rounds, max_bits, final configurations and event traces identical
    to the boxed store and to [run_reference] on shared seeds.

    Every hook is supported. Those that read boxed states ([on_round],
    [on_step], [adversary], Φ for telemetry or events, legality
    tracking, rule tags for [events] or [profile]) re-box registers: the
    whole configuration on the first read, then only the registers
    written since the previous read. [max_bits] is the fixed register
    width [P.size_bits n _]. *)

module Make (P : Protocol.PACKED) : sig
  include Engine.S with type state = P.state

  (** [pack_bank ~n init] — the register bank encoding [init]: [P.words]
      int lanes of length [n], [bank.(f).(v)] = lane [f] of node [v]'s
      packed register.
      @raise Invalid_argument if [P.pack] returns the wrong width. *)
  val pack_bank : n:int -> P.state array -> int array array

  (** [run_bank g sched rng ~bank] — {!run} on a caller-owned register
      bank (as built by {!pack_bank}), {e mutated in place}: the final
      registers are left in [bank], and [result.states] re-boxes them
      for observers. This is service mode's entry point — registers
      survive between recovery runs in the bank, and churn migration
      copies surviving lanes verbatim instead of round-tripping through
      boxed states.
      @raise Invalid_argument if [bank] is not [P.words] lanes of
      length [n]. *)
  val run_bank : (P.state, bank:int array array -> result) Engine.runner
end
