(* Pointwise oracles for the MST and MDST builders: the builders as they
   were before the shared local-search layer (test/oracle/, kept
   verbatim) must agree with today's on every guard, register width,
   rule tag, codec word and random draw. States cross between the two
   type families through the codecs, whose round trip is exact. *)

open Repro_graph
open Repro_runtime
open Repro_core

module type BUILDER = sig
  type state

  module P : Protocol.S with type state = state
  module Codec : Protocol.CODEC with type state = state
end

module Pin (N : BUILDER) (O : BUILDER) = struct
  module NE = Engine.Make (N.P)
  module OE = Engine.Make (O.P)

  let to_old n s = O.Codec.unpack ~n (N.Codec.pack ~n s)
  let tag f a b = match f with Some f -> f a b | None -> ""

  (* Every node's guard, its move's width and tag, and the register's
     width, words and tag against its successor's register (an
     arbitrary pair, so the tag order is pinned too). *)
  let agrees g sts =
    let n = Graph.n g in
    let old = Array.map (to_old n) sts in
    let ok = ref true in
    for v = 0 to n - 1 do
      (match (N.P.step (NE.view g sts v), O.P.step (OE.view g old v)) with
      | None, None -> ()
      | Some a, Some b ->
          if
            N.Codec.pack ~n a <> O.Codec.pack ~n b
            || N.P.size_bits n a <> O.P.size_bits n b
            || tag N.P.classify sts.(v) a <> tag O.P.classify old.(v) b
          then ok := false
      | _ -> ok := false);
      let u = (v + 1) mod n in
      if
        N.Codec.pack ~n sts.(v) <> O.Codec.pack ~n old.(v)
        || N.P.size_bits n sts.(v) <> O.P.size_bits n old.(v)
        || tag N.P.classify sts.(v) sts.(u) <> tag O.P.classify old.(v) old.(u)
      then ok := false
    done;
    !ok

  (* Arbitrary registers: all garbage, or a silent configuration with up
     to four registers replaced by garbage, so later rules fire too. *)
  let arbitrary rng g =
    let n = Graph.n g in
    if Random.State.bool rng then Array.init n (fun v -> N.P.random_state rng g v)
    else begin
      let r = NE.run ~max_steps:(40 * n * n) g Scheduler.Synchronous rng ~init:(NE.initial g) in
      let sts = Array.copy r.NE.states in
      for _ = 1 to Random.State.int rng 5 do
        let v = Random.State.int rng n in
        sts.(v) <- N.P.random_state rng g v
      done;
      sts
    end

  (* Configurations sampled along a run (each step kept with
     probability 1/8, at most 30, plus the final one), and the run
     itself replayed on the oracle: same steps, rounds, bits and final
     words. *)
  let along_run rng g sched =
    let n = Graph.n g in
    let pick = Random.State.copy rng in
    let acc = ref [] and kept = ref 0 in
    let orng = Random.State.copy rng in
    let adversarial = Random.State.bool rng in
    ignore (Random.State.bool orng);
    let init = if adversarial then NE.adversarial rng g else NE.initial g in
    let oinit = if adversarial then OE.adversarial orng g else OE.initial g in
    let max_steps = 40 * n * n in
    let r =
      NE.run ~max_steps g sched rng ~init ~on_step:(fun _ sts ->
          if !kept < 30 && Random.State.int pick 8 = 0 then begin
            incr kept;
            acc := Array.copy sts :: !acc
          end)
    in
    let o = OE.run ~max_steps g sched orng ~init:oinit in
    r.NE.steps = o.OE.steps && r.NE.rounds = o.OE.rounds && r.NE.max_bits = o.OE.max_bits
    && r.NE.silent = o.OE.silent && r.NE.legal = o.OE.legal
    && Array.for_all2 (fun a b -> N.Codec.pack ~n a = O.Codec.pack ~n b) r.NE.states o.OE.states
    && List.for_all (agrees g) (r.NE.states :: !acc)

  let same_draws g rng =
    let orng = Random.State.copy rng in
    let n = Graph.n g in
    List.for_all
      (fun v ->
        N.Codec.pack ~n (N.P.random_state rng g v) = O.Codec.pack ~n (O.P.random_state orng g v))
      (List.init n Fun.id)
    && Random.State.bits rng = Random.State.bits orng
end

module Mst = Pin (Mst_builder) (Builder_oracle.Mst_builder)
module Mdst = Pin (Mdst_builder) (Builder_oracle.Mdst_builder)

let prop name count gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

let gen_graph max_n =
  QCheck2.Gen.(
    let* n = int_range 1 max_n in
    let* extra = int_range 0 n in
    let* s = int_bound 1_000_000 in
    return (n, extra, s))

let graph_of (n, extra, s) tag =
  let rng = Random.State.make [| n; extra; s; tag |] in
  (rng, Generators.random_connected rng ~n ~m:(n - 1 + extra))

let daemons =
  [ Scheduler.Synchronous; Scheduler.Central Scheduler.Random_daemon; Scheduler.Distributed 0.5 ]

let props name ~agrees ~arbitrary ~along_run ~same_draws ~runs_n =
  [
    prop (name ^ ": guard, bits, tags, words = oracle on arbitrary registers") 300 (gen_graph 16)
      (fun p ->
        let rng, g = graph_of p 1 in
        List.for_all (fun _ -> agrees g (arbitrary rng g)) [ 1; 2; 3 ]);
    prop (name ^ ": = oracle along runs (three daemons)") 25 (gen_graph runs_n) (fun p ->
        let rng, g = graph_of p 2 in
        List.for_all (along_run rng g) daemons);
    prop (name ^ ": random_state draws = oracle") 300 (gen_graph 16) (fun p ->
        let rng, g = graph_of p 3 in
        same_draws g rng);
  ]

let () =
  QCheck_base_runner.set_seed 20260704;
  Alcotest.run "repro_oracle"
    [
      ( "mst",
        props "MST" ~agrees:Mst.agrees ~arbitrary:Mst.arbitrary ~along_run:Mst.along_run
          ~same_draws:Mst.same_draws ~runs_n:16 );
      ( "mdst",
        props "MDST" ~agrees:Mdst.agrees ~arbitrary:Mdst.arbitrary ~along_run:Mdst.along_run
          ~same_draws:Mdst.same_draws ~runs_n:12 );
    ]
