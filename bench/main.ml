(* Experiment harness: regenerates every quantitative artifact of the
   paper per the index in DESIGN.md (E1-E10), plus Bechamel
   micro-benchmarks of the core operations.

     dune exec bench/main.exe             # everything
     dune exec bench/main.exe -- E3 E4    # selected experiments

   The paper is a theory paper — its "tables and figures" are theorem
   statements plus Figures 1 and 2 — so each experiment measures the
   quantitative content of one claim; EXPERIMENTS.md records
   paper-vs-measured. *)

open Repro_graph
open Repro_runtime
open Repro_labels
open Repro_core
open Repro_baselines
open Repro_bench
module E = Graph.Edge

(* [--seed N] replaces the default RNG seed base; [--out FILE] redirects
   the BENCH_repro.json artifact (the smoke gate writes to a declared
   dune target); [--jobs N] sets the worker-domain count for the
   independent experiment cells (default: the machine's recommended
   domain count; 1 = the exact sequential path); [--profile] attaches
   engine profiling counters to every recorded engine run and prints
   them per cell; [--big-nmax N] trims the big-n tier (experiment BIG)
   to cells with n <= N (the @bigbench alias runs the n=10^3 column
   only — see SCALING.md); remaining arguments select experiments. *)
let seed_base, out_path, jobs, profiling, big_nmax, exp_args =
  let rec go seed out jobs prof nmax acc = function
    | [] -> (seed, out, jobs, prof, nmax, List.rev acc)
    | "--seed" :: v :: rest ->
        go (match int_of_string_opt v with Some s -> s | None -> seed) out jobs prof nmax
          acc rest
    | "--out" :: v :: rest -> go seed v jobs prof nmax acc rest
    | "--jobs" :: v :: rest ->
        go seed out
          (match int_of_string_opt v with Some j -> j | None -> jobs)
          prof nmax acc rest
    | "--profile" :: rest -> go seed out jobs true nmax acc rest
    | "--big-nmax" :: v :: rest ->
        go seed out jobs prof
          (match int_of_string_opt v with Some m -> m | None -> nmax)
          acc rest
    | a :: rest -> go seed out jobs prof nmax (a :: acc) rest
  in
  go 0xE57 "BENCH_repro.json" (Pool.default_jobs ()) false max_int []
    (Array.to_list Sys.argv |> List.tl)

let pool = Pool.create ~jobs ()
let rng_of tag = Random.State.make [| seed_base; tag |]
let header id title = Format.printf "@.==== %s: %s ====@." id title

let log2c k =
  let rec go acc p = if p >= k then acc else go (acc + 1) (p * 2) in
  if k <= 1 then 0 else go 0 1

let selected id = exp_args = [] || List.mem id exp_args

(* ------------------------------------------------------------------ *)
(* BENCH_repro.json: every engine run an experiment performs is recorded
   as one [Bench_record.t] (the artifact's declaration) and the
   collection is written at exit — the machine-readable trajectory perf
   PRs diff against. [tier] is "std" for the classic small-n cells and
   "big" for the BIG experiment's 10^3..10^5 cells (the @bigbench
   gate). A record holds only counts the seed decides; timing is
   bench/perf's job. *)

let bench_records : Bench_record.t list ref = ref []

let record ?(tier = "std") ~exp ~algo ~n ~rounds ~steps ~max_bits () =
  { Bench_record.exp; algo; n; tier; rounds; steps; max_bits }

(* --profile support: one fresh counter set per engine run, printed as an
   extra line under the cell's table row (buffered with the row, so the
   output stays byte-identical at any --jobs). *)
let new_profile () = if profiling then Some (Profile.create ()) else None

let pp_profile ppf = function
  | Some p -> Format.fprintf ppf "       profile: %a@." Profile.pp p
  | None -> ()

(* The campaign-cell driver: one row per item, farmed out to the domain
   pool. Each row is hermetic (its RNG comes from [rng_of] inside the
   worker), formats its table lines into a private buffer, and returns
   the bench records it produced; rows are then printed and the records
   merged in item order, so stdout and BENCH_repro.json are identical
   at any --jobs. *)
let par_rows items f =
  List.iter
    (fun (row, recs) ->
      Format.printf "%s" row;
      bench_records := List.rev_append recs !bench_records)
    (Pool.map pool
       (fun item ->
         let buf = Buffer.create 256 in
         let ppf = Format.formatter_of_buffer buf in
         let recs = f ppf item in
         Format.pp_print_flush ppf ();
         (Buffer.contents buf, recs))
       items)

let write_bench_repro () =
  let path = out_path in
  let oc = open_out path in
  Metrics.Json.to_channel oc (Bench_record.to_json ~seed:seed_base (List.rev !bench_records));
  close_out oc;
  Format.printf "%s: %d engine-run records written@." path (List.length !bench_records)

(* ------------------------------------------------------------------ *)
(* E1 — Corollary 6.1: MST rounds and register bits vs n *)

module ME = Mst_builder.Engine

let e1 () =
  header "E1" "MST builder (Corollary 6.1): rounds-to-silence and register bits vs n";
  Format.printf "%6s %6s %8s %10s %8s %10s %8s %6s@." "n" "m" "rounds" "steps" "bits"
    "c*log^2 n" "weight" "MST?";
  par_rows [ 8; 12; 16; 24; 32; 48 ] (fun ppf n ->
      let rng = rng_of (100 + n) in
      let g = Generators.random_connected rng ~n ~m:(2 * n) in
      let profile = new_profile () in
      let r =
        ME.run ~max_rounds:30_000 ?profile g Scheduler.Synchronous rng ~init:(ME.initial g)
      in
      let weight, is_mst =
        match Mst_builder.tree_of g r.ME.states with
        | Some t -> (Tree.weight t g, Mst.is_mst g t)
        | None -> (-1, false)
      in
      Format.fprintf ppf "%6d %6d %8d %10d %8d %10d %8d %6b%s@." n (Graph.m g) r.ME.rounds
        r.ME.steps r.ME.max_bits
        (log2c n * log2c n)
        weight is_mst
        (if r.ME.silent then "" else "  (round budget hit)");
      pp_profile ppf profile;
      [
        record ~exp:"E1" ~algo:"mst" ~n ~rounds:r.ME.rounds ~steps:r.ME.steps
          ~max_bits:r.ME.max_bits ();
      ]);
  Format.printf
    "shape: rounds polynomial in n; bits within a constant of log^2 n (space-optimal).@."

(* ------------------------------------------------------------------ *)
(* E2 — Corollary 8.1: MDST degree quality and register bits *)

module DE = Mdst_builder.Engine

let e2 () =
  header "E2" "MDST builder (Corollary 8.1): degree vs OPT+1, O(log n) bits";
  Format.printf "%-14s %4s %6s %8s %6s %5s %5s %7s %8s@." "graph" "n" "rounds" "bits"
    "deg" "FR" "OPT" "<=OPT+1" "silent";
  let cases =
    [
      ("complete-8", fun rng -> Generators.complete rng ~n:8);
      ("gnp-12", fun rng -> Generators.gnp rng ~n:12 ~p:0.35);
      ("gnp-16", fun rng -> Generators.gnp rng ~n:16 ~p:0.3);
      ("geometric-16", fun rng -> Generators.geometric rng ~n:16 ~radius:0.45);
      ("lollipop-9", fun rng -> Generators.lollipop rng ~clique:5 ~tail:4);
      ("caterpillar", fun rng -> Generators.caterpillar rng ~spine:3 ~legs:3);
    ]
  in
  par_rows
    (List.mapi (fun i case -> (i, case)) cases)
    (fun ppf (i, (name, gen)) ->
      let rng = rng_of (200 + i) in
      let g = gen rng in
      let n = Graph.n g in
      let profile = new_profile () in
      let r = DE.run ?profile g Scheduler.Synchronous rng ~init:(DE.initial g) in
      let deg =
        match Mdst_builder.tree_of g r.DE.states with
        | Some t -> Tree.max_degree t
        | None -> -1
      in
      let fr, _, _ = Min_degree.furer_raghavachari g ~root:0 in
      let opt = if n <= 12 then Min_degree.exact g else -1 in
      Format.fprintf ppf "%-14s %4d %6d %8d %6d %5d %5s %7b %8b@." name n r.DE.rounds
        r.DE.max_bits deg (Tree.max_degree fr)
        (if opt >= 0 then string_of_int opt else "?")
        (opt < 0 || deg <= opt + 1)
        r.DE.silent;
      pp_profile ppf profile;
      [
        record ~exp:"E2" ~algo:"mdst" ~n ~rounds:r.DE.rounds ~steps:r.DE.steps
          ~max_bits:r.DE.max_bits ();
      ]);
  Format.printf "shape: stable degree <= OPT+1 (FR-trees); bits O(log n).@."

(* ------------------------------------------------------------------ *)
(* E3 — Lemma 4.1 + Figure 1: loop-free switching, no false alarms *)

let e3 () =
  header "E3" "Switching (Lemma 4.1, Figure 1): loop-free, verifier never rejects";
  Format.printf "%6s %10s %12s %12s %10s@." "n" "chain len" "micro steps" "all trees"
    "all accept";
  par_rows [ 8; 16; 32; 64; 128 ] (fun ppf n ->
      let rng = rng_of (300 + n) in
      let g = Generators.random_connected rng ~n ~m:(2 * n) in
      let t = Tree.of_graph_bfs g ~root:0 in
      (* Candidate sampling is O(1) array indexing — [List.nth] under an
         RNG draw walked O(|E|) (resp. O(n)) links per draw. The RNG
         consumption (one int each) is unchanged. *)
      let non_tree =
        Array.to_list (Graph.edges g)
        |> List.filter (fun (e : E.t) -> not (Tree.mem_edge t e.E.u e.E.v))
        |> Array.of_list
      in
      let e = non_tree.(Random.State.int rng (Array.length non_tree)) in
      let cycle = Tree.fundamental_cycle t ~e:(e.E.u, e.E.v) in
      let rec pairs = function a :: b :: r -> (a, b) :: pairs (b :: r) | _ -> [] in
      let ps = Array.of_list (pairs cycle) in
      let a, b = ps.(Random.State.int rng (Array.length ps)) in
      let steps, _ = Switch.execute g t ~add:(e.E.u, e.E.v) ~remove:(a, b) in
      let trees =
        List.for_all
          (fun (m : Switch.micro) ->
            Tree.check_parents ~root:(Tree.root m.Switch.tree) (Tree.parents m.Switch.tree))
          steps
      in
      let accepts =
        List.for_all
          (fun (m : Switch.micro) ->
            Pls.accepts g
              ~parent:(Tree.parents m.Switch.tree)
              ~labels:m.Switch.labels Redundant_pls.verify)
          steps
      in
      Format.fprintf ppf "%6d %10d %12d %12b %10b@." n (List.length cycle)
        (List.length steps) trees accepts;
      []);
  Format.printf "shape: O(n) micro steps per switch; every row must be true/true.@."

(* ------------------------------------------------------------------ *)
(* E4 — Lemma 5.1: NCA labels: size, construction, certification *)

let e4 () =
  header "E4" "NCA labeling (Lemma 5.1): label bits vs n, PLS soundness";
  Format.printf "%6s %10s %10s %12s %12s %12s %14s@." "n" "max pairs" "raw bits"
    "compact bits" "log2 n" "nca correct" "corrupt caught";
  par_rows [ 16; 64; 256; 1024 ] (fun ppf n ->
      let rng = rng_of (400 + n) in
      let g = Generators.random_connected rng ~n ~m:(2 * n) in
      let t = Tree.of_graph_bfs g ~root:0 in
      let labels = Nca_labels.prover t in
      let compact = Compact_nca.prover t in
      let max_pairs = Array.fold_left (fun a l -> max a (Nca_labels.length l)) 0 labels in
      let max_bits =
        Array.fold_left (fun a l -> max a (Nca_labels.size_bits n l)) 0 labels
      in
      let compact_bits = Array.fold_left (fun a l -> max a (Compact_nca.bits l)) 0 compact in
      let ok = ref true in
      for _ = 1 to 200 do
        let u = Random.State.int rng n and v = Random.State.int rng n in
        if
          not
            (Nca_labels.equal
               (Nca_labels.nca labels.(u) labels.(v))
               labels.(Tree.nca t u v))
          || not
               (Compact_nca.equal
                  (Compact_nca.nca compact.(u) compact.(v))
                  compact.(Tree.nca t u v))
        then ok := false
      done;
      let pls = Nca_pls.prover t in
      let accepted = Pls.accepts g ~parent:(Tree.parents t) ~labels:pls Nca_pls.verify in
      let caught = ref 0 in
      let trials = 20 in
      for _ = 1 to trials do
        let v = 1 + Random.State.int rng (n - 1) in
        let bad = Array.copy pls in
        bad.(v) <-
          { bad.(v) with Nca_pls.seq = Nca_labels.extend_heavy bad.(v).Nca_pls.seq };
        if not (Pls.accepts g ~parent:(Tree.parents t) ~labels:bad Nca_pls.verify) then
          incr caught
      done;
      Format.fprintf ppf "%6d %10d %10d %12d %12d %12b %11d/%d%s@." n max_pairs max_bits
        compact_bits (log2c n) !ok !caught trials
        (if accepted then "" else "  (PLS completeness FAILED)");
      []);
  Format.printf
    "shape: pairs <= log2 n + 1; the raw (head,pos) encoding costs O(log^2 n) bits while \
     the alphabetic/γ-coded one ([6], Compact_nca) stays O(log n).@."

(* ------------------------------------------------------------------ *)
(* E5 — Section III example: BFS construction *)

module BE = Bfs_builder.Engine_packed
module AE = Adhoc_bfs.Engine_packed

let e5 () =
  header "E5" "BFS (Section III example): rounds, bits, vs the rooted ad-hoc baseline";
  Format.printf "%6s | %8s %6s %6s | %9s %6s %6s@." "n" "pls-rnd" "bits" "legal"
    "adhoc-rnd" "bits" "legal";
  par_rows [ 16; 32; 64; 128; 256 ] (fun ppf n ->
      let rng = rng_of (500 + n) in
      let g = Generators.gnp rng ~n ~p:(4.0 /. float_of_int n) in
      let profile = new_profile () in
      let r = BE.run ?profile g Scheduler.Synchronous rng ~init:(BE.adversarial rng g) in
      let a = AE.run g Scheduler.Synchronous rng ~init:(AE.adversarial rng g) in
      Format.fprintf ppf "%6d | %8d %6d %6b | %9d %6d %6b@." n r.BE.rounds r.BE.max_bits
        r.BE.legal a.AE.rounds a.AE.max_bits a.AE.legal;
      pp_profile ppf profile;
      [
        record ~exp:"E5" ~algo:"bfs" ~n ~rounds:r.BE.rounds ~steps:r.BE.steps
          ~max_bits:r.BE.max_bits ();
        record ~exp:"E5" ~algo:"adhoc-bfs" ~n ~rounds:a.AE.rounds ~steps:a.AE.steps
          ~max_bits:a.AE.max_bits ();
      ]);
  Format.printf
    "shape: both O(n) rounds and O(log n) bits; the PLS-guided version also elects the \
     root.@."

(* ------------------------------------------------------------------ *)
(* E6 — Figure 2: the Borůvka fragment hierarchy *)

let e6 () =
  header "E6" "Fragment hierarchy (Figure 2): levels k <= ceil(log2 n) + 1, halving";
  Format.printf "%6s %8s %12s %s@." "n" "levels" "ceil log2 n" "fragments per level";
  par_rows [ 8; 16; 32; 64; 128; 256 ] (fun ppf n ->
      let rng = rng_of (600 + n) in
      let g = Generators.random_connected rng ~n ~m:(2 * n) in
      let mst = Mst.tree_of g (Mst.kruskal g) ~root:0 in
      let labels = Fragment_labels.prover g mst in
      let k = Fragment_labels.levels labels.(0) in
      let series =
        List.init k (fun i ->
            string_of_int (List.length (Fragment_labels.fragments_at labels ~level:i)))
      in
      Format.fprintf ppf "%6d %8d %12d %s@." n k (log2c n) (String.concat " -> " series);
      []);
  Format.printf "shape: counts at least halve per level down to 1 (Figure 2's invariant).@."

(* ------------------------------------------------------------------ *)
(* E7 — Theorem 3.1: convergence under every scheduler *)

let e7 () =
  header "E7" "Scheduler robustness (unfair daemon of Theorem 3.1)";
  let rng = rng_of 700 in
  let g = Generators.gnp rng ~n:16 ~p:0.3 in
  Format.printf "%-12s | %12s %6s | %12s %6s %10s@." "scheduler" "BFS rounds" "legal"
    "MST rounds" "legal" "fair-cont";
  List.iter
    (fun (name, sched) ->
      let rng = rng_of 701 in
      let rb = BE.run g sched rng ~init:(BE.adversarial rng g) in
      let rm = ME.run g sched rng ~init:(ME.initial g) in
      (* A deterministic starving daemon may freeze the token holders in a
         zero-round stall (permitted by the paper's round-based statements);
         any fair continuation must complete — measure that directly. *)
      let fair_cont =
        if rm.ME.legal then "-"
        else
          let r2 =
            ME.run g (Scheduler.Central Scheduler.Round_robin) rng ~init:rm.ME.states
          in
          Printf.sprintf "%b" r2.ME.legal
      in
      Format.printf "%-12s | %12d %6b | %12d %6b %10s@." name rb.BE.rounds rb.BE.legal
        rm.ME.rounds rm.ME.legal fair_cont)
    Scheduler.all;
  Format.printf
    "shape: silent and legal under every fair daemon; a deterministic starving daemon@.";
  Format.printf
    "(max-id, min-id, the LIFO adversary) may freeze the token holders in a stall that@.";
  Format.printf
    "accumulates (almost) no rounds -- permitted by the paper's round-based statements --@.";
  Format.printf
    "and the fair-cont column shows every stall completes once scheduling is fair again@.";
  Format.printf "(the unfair-daemon caveat of DESIGN.md).@."

(* ------------------------------------------------------------------ *)
(* E8 — self-stabilization: chaos campaign with recovery accounting *)

let e8 () =
  header "E8"
    "Chaos campaign: fault gap / containment radius per corruption model (n=24)";
  let g = Generators.random_connected (rng_of 800) ~n:24 ~m:48 in
  let mean_gap inj =
    match List.filter_map (fun i -> i.Chaos.gap) inj with
    | [] -> "-"
    | gaps ->
        Printf.sprintf "%.1f"
          (float_of_int (List.fold_left ( + ) 0 gaps) /. float_of_int (List.length gaps))
  in
  let max_radius inj =
    match List.filter_map (fun i -> i.Chaos.radius) inj with
    | [] -> "-"
    | rs -> string_of_int (List.fold_left max 0 rs)
  in
  let touched inj = List.fold_left (fun acc i -> acc + i.Chaos.touched) 0 inj in
  let cell (type s) name (module P : Protocol.S with type state = s)
      (module E : Engine.S with type state = s) sched plan =
    let module C = Chaos.Make (P) (E) in
    let rng = rng_of (801 + (Hashtbl.hash (name, Fault.Plan.name plan) mod 997)) in
    let e = C.run_episode g sched rng plan in
    Format.printf "%-5s %-30s %4d %8s %7s %8d  %s@." name (Fault.Plan.name plan)
      (List.length e.C.injections) (mean_gap e.C.injections) (max_radius e.C.injections)
      (touched e.C.injections)
      (Watchdog.verdict_name e.C.verdict)
  in
  Format.printf "%-5s %-30s %4s %8s %7s %8s  %s@." "algo" "plan" "inj" "gap" "radius"
    "touched" "verdict";
  let daemon = Scheduler.Central Scheduler.Random_daemon in
  List.iter
    (fun plan ->
      cell "bfs" (module Bfs_builder.P) (module Bfs_builder.Engine_packed) daemon plan;
      cell "mst" (module Mst_builder.P) (module Mst_builder.Engine) daemon plan;
      cell "spt" (module Spt_builder.P) (module Spt_builder.Engine_packed) daemon plan)
    Fault.Plan.defaults;
  (* The potential-greedy daemons bracket the recovery cost of one cell:
     greedy-min descends Phi steepest, greedy-max drags recovery out. *)
  Format.printf "-- adversarial daemon drag (spt, random:3 at silence) --@.";
  List.iter
    (fun (label, d) ->
      cell label (module Spt_builder.P) (module Spt_builder.Engine_packed) d
        (Fault.Plan.make (Fault.Plan.Random_nodes 3)))
    [ ("min", Scheduler.Central Scheduler.Greedy_min_phi);
      ("max", Scheduler.Central Scheduler.Greedy_max_phi) ];
  Format.printf
    "shape: every episode converges back to the silent legal tree; the perturbation@.";
  Format.printf
    "stays within a few hops of the injected nodes (containment), and the greedy-max@.";
  Format.printf "daemon pays more steps than steepest descent for the same fault.@."

(* ------------------------------------------------------------------ *)
(* E9 — the comparison table of Section I-D *)

let e9 () =
  header "E9" "Algorithm comparison (Section I-D): silence, space, rounds";
  let rng = rng_of 900 in
  let g = Generators.gnp rng ~n:16 ~p:0.3 in
  Format.printf "graph: n=%d m=%d@." (Graph.n g) (Graph.m g);
  Format.printf "%-16s %8s %8s %8s %8s  %s@." "algorithm" "silent" "legal" "rounds"
    "bits" "notes";
  let row (type s) name (module En : Engine.S with type state = s) ~adversarial ~notes =
    let rng = rng_of 901 in
    let init = if adversarial then En.adversarial rng g else En.initial g in
    let r = En.run g Scheduler.Synchronous rng ~init in
    Format.printf "%-16s %8b %8b %8d %8d  %s@." name r.En.silent r.En.legal r.En.rounds
      r.En.max_bits notes
  in
  row "pls-bfs" (module Bfs_builder.Engine_packed) ~adversarial:true ~notes:"Section III";
  row "adhoc-bfs" (module Adhoc_bfs.Engine_packed) ~adversarial:true
    ~notes:"root known a priori";
  row "pls-mst" (module Mst_builder.Engine) ~adversarial:false ~notes:"Corollary 6.1";
  row "pls-mst(adv)" (module Mst_builder.Engine) ~adversarial:true ~notes:"from garbage";
  row "compact-mst" (module Compact_mst.Engine) ~adversarial:false ~notes:"uncertified Boruvka";
  row "fullinfo-mst"
    (module Fullinfo.Mst_instance.Engine)
    ~adversarial:false ~notes:"[15]-style, huge registers";
  row "pls-mdst" (module Mdst_builder.Engine) ~adversarial:false ~notes:"Corollary 8.1";
  row "fullinfo-mdst"
    (module Fullinfo.Mdst_instance.Engine)
    ~adversarial:false ~notes:"[15]-style, huge registers";
  let fr = Compact_mst.failure_rate (rng_of 902) g ~trials:20 in
  Format.printf
    "compact-mst from adversarial starts: silent-but-WRONG in %.0f%% of 20 trials — why \
     silence needs certificates (the Omega(log^2 n) lower bound of [50]).@."
    (100.0 *. fr)

(* ------------------------------------------------------------------ *)
(* E10 — Lemma 3.1/7.1: potential monotonicity *)

let e10 () =
  header "E10" "Potential functions (Lemmas 3.1/7.1): strict decrease per improvement";
  let rng = rng_of 1000 in
  let g = Generators.random_connected rng ~n:20 ~m:44 in
  let t = ref (Tree.of_graph_bfs g ~root:0) in
  let trace = ref [] in
  let continue_ = ref true in
  while !continue_ do
    let labels = Fragment_labels.prover g !t in
    trace := Fragment_labels.potential g !t labels :: !trace;
    match Fragment_labels.violation_level g labels with
    | None -> continue_ := false
    | Some lvl -> (
        let cand = ref None in
        Array.iter
          (fun (l : Fragment_labels.label) ->
            if !cand = None then
              let en = l.(lvl) in
              match en.Fragment_labels.out with
              | Some out -> (
                  match
                    Fragment_labels.min_outgoing g labels ~level:lvl
                      ~frag:en.Fragment_labels.frag
                  with
                  | Some m when not (E.equal m out) -> cand := Some m
                  | _ -> ())
              | None -> ())
          labels;
        match !cand with
        | None -> continue_ := false
        | Some e ->
            let cycle = Tree.fundamental_cycle !t ~e:(e.E.u, e.E.v) in
            let rec pairs = function a :: b :: r -> (a, b) :: pairs (b :: r) | _ -> [] in
            let f =
              List.fold_left
                (fun best (a, b) ->
                  let eb = E.make a b (Graph.weight g a b) in
                  match best with
                  | None -> Some eb
                  | Some c -> if E.compare eb c > 0 then Some eb else best)
                None (pairs cycle)
              |> Option.get
            in
            t := Tree.swap !t ~add:(e.E.u, e.E.v) ~remove:(f.E.u, f.E.v))
  done;
  let tr = List.rev !trace in
  Format.printf "MST phi trace (%d improvements): %s@."
    (List.length tr - 1)
    (String.concat " -> " (List.map string_of_int tr));
  Format.printf
    "(phi is computed against the CURRENT tree's trace depth k, which can grow      mid-run, so the raw values may locally bump; the strictly decreasing      companion is the tree weight, and phi at fixed k decreases per the paper)@.";
  Format.printf "ends at MST: %b@." (Mst.is_mst g !t);
  let g2 = Generators.complete (rng_of 1001) ~n:9 in
  let t2 = ref (Tree.of_graph_bfs g2 ~root:0) in
  let phi t =
    let d = Tree.max_degree t in
    let nd =
      List.length (List.filter (fun v -> Tree.degree t v = d) (List.init 9 Fun.id))
    in
    (9 * d) + nd
  in
  let steps = ref [ phi !t2 ] in
  let rec improve () =
    match Min_degree.improve_once g2 !t2 with
    | Some t' ->
        t2 := t';
        steps := phi !t2 :: !steps;
        improve ()
    | None -> ()
  in
  improve ();
  Format.printf "MDST (n*D + N_D) trajectory on K9: %s@."
    (String.concat " -> " (List.map string_of_int (List.rev !steps)));
  Format.printf "final degree: %d (Hamiltonian path = 2)@." (Tree.max_degree !t2)

(* ------------------------------------------------------------------ *)
(* E11 — extension: silent self-stabilizing shortest-path trees *)

module SE = Spt_builder.Engine_packed

let e11 () =
  header "E11" "SPT extension: weighted shortest-path trees (related work [38],[44])";
  Format.printf "%6s %8s %8s %8s %10s@." "n" "rounds" "bits" "legal" "phi(end)";
  par_rows [ 16; 32; 64; 128 ] (fun ppf n ->
      let rng = rng_of (1100 + n) in
      let g = Generators.random_connected rng ~n ~m:(2 * n) in
      let profile = new_profile () in
      let r = SE.run ?profile g Scheduler.Synchronous rng ~init:(SE.adversarial rng g) in
      Format.fprintf ppf "%6d %8d %8d %8b %10d@." n r.SE.rounds r.SE.max_bits
        (Spt_builder.is_spt g r.SE.states)
        (Spt_builder.potential g r.SE.states);
      pp_profile ppf profile;
      [
        record ~exp:"E11" ~algo:"spt" ~n ~rounds:r.SE.rounds ~steps:r.SE.steps
          ~max_bits:r.SE.max_bits ();
      ]);
  Format.printf "shape: silent on the exact Dijkstra distances, O(log n) bits.@."

(* ------------------------------------------------------------------ *)
(* E12 — extension: minimum-degree Steiner trees (the [33] setting) *)

let e12 () =
  header "E12" "Steiner extension: FR-style degree reduction over terminal sets";
  Format.printf "%6s %6s %10s %10s %10s %8s@." "n" "|S|" "metric deg" "final deg"
    "exact(set)" "swaps";
  par_rows [ (12, 4); (16, 5); (24, 6); (32, 8) ] (fun ppf (n, nt) ->
      let rng = rng_of (1200 + n) in
      let g = Generators.gnp rng ~n ~p:0.3 in
      let terminals = List.init nt (fun i -> i * (n / nt)) in
      let base = Steiner.prune ~terminals (Steiner.metric_mst g ~terminals) in
      let final, swaps = Steiner.min_degree_steiner g ~terminals in
      let exact =
        if List.length final.Steiner.nodes <= 10 then
          string_of_int (Steiner.exact_degree g ~nodes:final.Steiner.nodes)
        else "?"
      in
      Format.fprintf ppf "%6d %6d %10d %10d %10s %8d@." n nt (Steiner.degree base)
        (Steiner.degree final) exact swaps;
      []);
  Format.printf
    "shape: the local search never worsens the metric tree's degree and tracks the      node-set optimum within one where the optimum is computable.@."

(* ------------------------------------------------------------------ *)
(* BIG — the big-n tier (SCALING.md): the struct-of-arrays engine on
   sparse graphs at n = 10^3..10^5. The fixed-width builders (bfs, spt)
   run to silence from adversarial registers through Engine_packed; the
   variable-width builders (mst, mdst) run the boxed engine from the
   designated boot configuration under an explicit step budget — their
   convergence cost grows like n^3 steps (see the E1 table), so the
   budget rows record honest partial progress, never silence. Records
   carry tier "big"; the @bigbench alias regenerates the n=10^3 column
   (--big-nmax 1000) and bench-diffs it against the committed
   baseline. *)

module BP = Bfs_builder.Engine_packed
module SP = Spt_builder.Engine_packed

let ebig () =
  header "BIG" "big-n tier (SCALING.md): packed engine, sparse m = 2n";
  Format.printf "%-5s %7s %8s %11s %6s %6s@." "algo" "n" "rounds" "steps" "bits" "legal";
  let keep ns = List.filter (fun n -> n <= big_nmax) ns in
  let cells =
    List.map (fun n -> `Bfs n) (keep [ 1_000; 10_000; 100_000 ])
    @ List.map (fun n -> `Spt n) (keep [ 1_000; 10_000; 100_000 ])
    @ List.map (fun n -> `Mst n) (keep [ 1_000; 10_000 ])
    @ List.map (fun n -> `Mdst n) (keep [ 1_000 ])
  in
  par_rows cells (fun ppf cell ->
      let row ~exp ~algo ~n ~rounds ~steps ~max_bits ~legal ~silent ~profile =
        Format.fprintf ppf "%-5s %7d %8d %11d %6d %6b%s@." algo n rounds steps max_bits legal
          (if silent then "" else "  (step budget hit)");
        pp_profile ppf profile;
        [ record ~tier:"big" ~exp ~algo ~n ~rounds ~steps ~max_bits () ]
      in
      match cell with
      | `Bfs n ->
          let rng = rng_of (1300 + n) in
          let g = Generators.random_connected rng ~n ~m:(2 * n) in
          let profile = new_profile () in
          let r = BP.run ?profile g Scheduler.Synchronous rng ~init:(BP.adversarial rng g) in
          row ~exp:"E1" ~algo:"bfs" ~n ~rounds:r.BP.rounds ~steps:r.BP.steps
            ~max_bits:r.BP.max_bits
            ~legal:(Bfs_builder.is_bfs_tree g r.BP.states)
            ~silent:r.BP.silent ~profile
      | `Spt n ->
          let rng = rng_of (1400 + n) in
          let g = Generators.random_connected rng ~n ~m:(2 * n) in
          let profile = new_profile () in
          let r = SP.run ?profile g Scheduler.Synchronous rng ~init:(SP.adversarial rng g) in
          row ~exp:"E2" ~algo:"spt" ~n ~rounds:r.SP.rounds ~steps:r.SP.steps
            ~max_bits:r.SP.max_bits
            ~legal:(Spt_builder.is_spt g r.SP.states)
            ~silent:r.SP.silent ~profile
      | `Mst n ->
          let rng = rng_of (1500 + n) in
          let g = Generators.random_connected rng ~n ~m:(2 * n) in
          let profile = new_profile () in
          let r =
            ME.run ~max_steps:(20 * n) ?profile g Scheduler.Synchronous rng ~init:(ME.initial g)
          in
          row ~exp:"E1" ~algo:"mst" ~n ~rounds:r.ME.rounds ~steps:r.ME.steps
            ~max_bits:r.ME.max_bits ~legal:r.ME.legal ~silent:r.ME.silent ~profile
      | `Mdst n ->
          let rng = rng_of (1600 + n) in
          let g = Generators.random_connected rng ~n ~m:(2 * n) in
          let profile = new_profile () in
          let r =
            DE.run ~max_steps:(20 * n) ?profile g Scheduler.Synchronous rng ~init:(DE.initial g)
          in
          row ~exp:"E2" ~algo:"mdst" ~n ~rounds:r.DE.rounds ~steps:r.DE.steps
            ~max_bits:r.DE.max_bits ~legal:r.DE.legal ~silent:r.DE.silent ~profile);
  Format.printf
    "shape: bfs/spt reach silence in O(diameter) rounds with flat O(n + m) memory; the \
     label-stacked mst/mdst rows record budgeted progress (their step complexity is the \
     object of study at small n, not a scaling target).@."

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks (Bechamel) *)

let micro () =
  header "micro" "Bechamel micro-benchmarks of core operations";
  let open Bechamel in
  let rng = rng_of 1100 in
  let g = Generators.random_connected rng ~n:64 ~m:128 in
  let t = Tree.of_graph_bfs g ~root:0 in
  let nca_labels = Nca_labels.prover t in
  let dist_labels = Distance_pls.prover t in
  let parent = Tree.parents t in
  let mst_states = ME.initial g in
  (* A stabilized configuration: every rule of the MST guard runs (the
     initial registers make the tree layer fire first). *)
  let silent =
    let r = ME.run g (Scheduler.Central Scheduler.Random_daemon) rng ~init:mst_states in
    assert r.ME.silent;
    r.ME.states
  in
  (* Views are built outside the timed code: [ME.view] rebuilds the
     whole network's adjacency on every call. *)
  let initial_view = ME.view g mst_states 17 and silent_view = ME.view g silent 17 in
  let tests =
    [
      Test.make ~name:"nca-compute"
        (Staged.stage (fun () -> ignore (Nca_labels.nca nca_labels.(17) nca_labels.(42))));
      Test.make ~name:"distance-pls-verify-node"
        (Staged.stage (fun () ->
             ignore (Distance_pls.verify (Pls.ctx_of g ~parent ~labels:dist_labels 17))));
      Test.make ~name:"fragment-prover-n64"
        (Staged.stage (fun () -> ignore (Fragment_labels.prover g t)));
      Test.make ~name:"mst-step-one-node"
        (Staged.stage (fun () -> ignore (Mst_builder.P.step initial_view)));
      Test.make ~name:"mst-step-silent-node"
        (Staged.stage (fun () -> ignore (Mst_builder.P.step silent_view)));
      Test.make ~name:"mst-size-bits"
        (Staged.stage (fun () -> ignore (Mst_builder.P.size_bits 64 silent.(17))));
      Test.make ~name:"kruskal-n64" (Staged.stage (fun () -> ignore (Mst.kruskal g)));
      Test.make ~name:"fr-sequential-n64"
        (Staged.stage (fun () -> ignore (Min_degree.furer_raghavachari g ~root:0)));
    ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  List.iter
    (fun test ->
      let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None () in
      let raw = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"micro" [ test ]) in
      let results =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| "run" |])
          instance raw
      in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> Format.printf "  %-34s %12.1f ns/op@." name est
          | _ -> Format.printf "  %-34s (no estimate)@." name)
        results)
    tests

(* ------------------------------------------------------------------ *)

let () =
  let all =
    [
      ("E1", e1); ("E2", e2); ("E3", e3); ("E4", e4); ("E5", e5); ("E6", e6);
      ("E7", e7); ("E8", e8); ("E9", e9); ("E10", e10); ("E11", e11); ("E12", e12);
      ("BIG", ebig); ("micro", micro);
    ]
  in
  List.iter (fun (id, f) -> if selected id then f ()) all;
  Pool.shutdown pool;
  write_bench_repro ();
  Format.printf "@.done.@."
