(* Pointwise oracles for the MST and MDST builders: the builders as they
   were before the shared local-search layer (test/oracle/, kept
   verbatim) must agree with today's on every guard, register width,
   rule tag, codec word and random draw. States cross between the two
   type families through the codecs, whose round trip is exact. *)

open Repro_graph
open Repro_runtime
open Repro_labels
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

(* A third input source for MST, heavy on sessions and aggregates:
   [P.random_state], or the exact NCA and trace labels of a random
   spanning tree (so merge, cycle and candidate tests see consistent
   neighbors), then up to four nodes reshaped into what [random_state]
   rarely draws — a parent that is also a child, frags longer than
   ⌈log₂ n⌉+1 with clashing fragment ids, labels of unequal length over
   a small alphabet (shared prefixes), aggregates built from neighbors'
   labels, tokens backed by a neighbor's cut agreement. *)
let mst_registers rng g =
  let n = Graph.n g in
  let cap = Space.log2_ceil (max 2 n) + 1 in
  let small () = Random.State.int rng (min n 3) in
  let edges = Graph.edges g in
  let random_out () =
    if Array.length edges = 0 || Random.State.int rng 3 = 0 then None
    else Some edges.(Random.State.int rng (Array.length edges))
  in
  let random_entry () =
    {
      Fragment_labels.frag = small ();
      fdist = Random.State.int rng 3;
      out = random_out ();
      odist = Random.State.int rng 3;
    }
  in
  (* A register's own [seq] is never empty ([Nca_labels.extend_heavy]
     needs a last pair); carried labels may be. *)
  let random_label ~min =
    Nca_labels.of_pairs
      (Array.init (min + Random.State.int rng (5 - min)) (fun _ -> (small (), small ())))
  in
  let sts =
    if Random.State.bool rng then Array.init n (fun v -> Mst_builder.P.random_state rng g v)
    else begin
      (* Every label layer at its fixpoint on a random spanning tree, so
         the guard reaches the trace, candidate and cut rules; the
         aggregates and the session stay [random_state]'s garbage half
         the time. *)
      let parent, order = Spanning.random_graph_tree rng g in
      let t = Tree.of_parents ~root:0 parent in
      let size = Array.make n 1 and heavy = Array.make n (-1) in
      for k = n - 1 downto 1 do
        let v = order.(k) in
        size.(parent.(v)) <- size.(parent.(v)) + size.(v)
      done;
      for v = 1 to n - 1 do
        let p = parent.(v) in
        if heavy.(p) = -1 || size.(v) > size.(heavy.(p)) then heavy.(p) <- v
      done;
      let seq = Array.make n (Nca_labels.of_root 0) in
      Array.iteri
        (fun k v ->
          if k > 0 then
            let p = parent.(v) in
            seq.(v) <-
              (if heavy.(p) = v then Nca_labels.extend_heavy seq.(p)
               else Nca_labels.extend_light seq.(p) ~child:v))
        order;
      let frags = Fragment_labels.prover g t in
      Array.init n (fun v ->
          let r = Mst_builder.P.random_state rng g v in
          let garbage = Random.State.bool rng in
          {
            Mst_builder.st = { St_layer.parent = parent.(v); root = 0; dist = Tree.depth t v };
            size = size.(v);
            heavy = heavy.(v);
            seq = seq.(v);
            frags = frags.(v);
            cand_agg = (if garbage then r.cand_agg else None);
            cut_agg = (if garbage then r.cut_agg else None);
            sw = (if garbage then r.sw else None);
          })
    end
  in
  let label_of () =
    if Random.State.bool rng then random_label ~min:0
    else sts.(Random.State.int rng n).Mst_builder.seq
  in
  let cand () =
    {
      Mst_builder.lvl = Random.State.int rng 3;
      e =
        (if Array.length edges = 0 then Graph.Edge.make 0 1 1
         else edges.(Random.State.int rng (Array.length edges)));
      su = label_of ();
      sv = label_of ();
    }
  in
  let cut () =
    let f_child = Random.State.int rng n in
    {
      Mst_builder.cand = cand ();
      f = (match random_out () with Some e -> e | None -> Graph.Edge.make 0 1 2);
      f_child;
      f_child_seq = (if Random.State.bool rng then sts.(f_child).seq else label_of ());
    }
  in
  for _ = 1 to Random.State.int rng 5 do
    let v = Random.State.int rng n in
    let nbrs = Graph.neighbors g v in
    let s = sts.(v) in
    match Random.State.int rng 6 with
    | 0 when Array.length nbrs > 0 ->
        let u, _ = nbrs.(Random.State.int rng (Array.length nbrs)) in
        sts.(v) <- { s with st = { s.st with parent = u } };
        sts.(u) <- { sts.(u) with st = { sts.(u).st with parent = v } }
    | 1 ->
        let len = cap + 1 + Random.State.int rng 3 in
        sts.(v) <- { s with frags = Array.init len (fun _ -> random_entry ()) }
    | 2 -> sts.(v) <- { s with seq = random_label ~min:1 }
    | 3 ->
        sts.(v) <-
          {
            s with
            cand_agg = Some { Aggregate.value = cand (); hops = Random.State.int rng (n + 1) };
            cut_agg = Some { Aggregate.value = cut (); hops = Random.State.int rng (n + 1) };
          }
    | 4 when Array.length nbrs > 0 ->
        (* A token addressed to a neighbor whose cut agreement backs it. *)
        let u, _ = nbrs.(Random.State.int rng (Array.length nbrs)) in
        let c = cut () in
        sts.(v) <- { s with sw = Some { Local_search.cut = c; next = u } };
        sts.(u) <-
          { sts.(u) with cut_agg = Some { Aggregate.value = c; hops = Random.State.int rng n } }
    | _ ->
        sts.(v) <-
          { s with sw = Some { Local_search.cut = cut (); next = Random.State.int rng (n + 1) - 1 } }
  done;
  sts

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
  Alcotest.run "repro_oracle"
    [
      ( "mst",
        props "MST" ~agrees:Mst.agrees ~arbitrary:Mst.arbitrary ~along_run:Mst.along_run
          ~same_draws:Mst.same_draws ~runs_n:16
        @ [
            prop "MST: guard, bits, tags, words = oracle on session-heavy registers" 1000
              (gen_graph 20) (fun p ->
                let rng, g = graph_of p 31 in
                List.for_all (fun _ -> Mst.agrees g (mst_registers rng g)) [ 1; 2; 3; 4 ]);
          ] );
      ( "mdst",
        props "MDST" ~agrees:Mdst.agrees ~arbitrary:Mdst.arbitrary ~along_run:Mdst.along_run
          ~same_draws:Mdst.same_draws ~runs_n:12 );
    ]
