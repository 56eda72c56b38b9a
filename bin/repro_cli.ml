(* Command-line driver: run any of the self-stabilizing constructions on
   any generated topology and report convergence statistics.

     dune exec bin/repro_cli.exe -- run --algo mst --graph gnp --nodes 30
     dune exec bin/repro_cli.exe -- run --algo mdst --graph geometric \
         --nodes 24 --sched adversary --adversarial
     dune exec bin/repro_cli.exe -- list *)

open Repro_graph
open Repro_runtime
open Repro_core
open Repro_baselines

type outcome = {
  algo : string;
  silent : bool;
  legal : bool;
  rounds : int;
  steps : int;
  max_bits : int;
  note : string;
  verdict : string option;
  failed : bool;
}

let report o =
  Format.printf "algorithm    : %s@." o.algo;
  Format.printf "silent       : %b@." o.silent;
  Format.printf "legal        : %b@." o.legal;
  Format.printf "rounds       : %d@." o.rounds;
  Format.printf "steps        : %d@." o.steps;
  Format.printf "max register : %d bits@." o.max_bits;
  (match o.verdict with Some v -> Format.printf "verdict      : %s@." v | None -> ());
  if o.note <> "" then Format.printf "result       : %s@." o.note

let edges_json g =
  Metrics.Json.List
    (Array.to_list (Graph.edges g)
    |> List.map (fun (e : Graph.Edge.t) ->
           Metrics.Json.(List [ Int e.u; Int e.v; Int e.w ])))

let run_algo algo g sched rng ~adversarial ~faults ~max_rounds ?(meta = []) ?metrics_out
    ?trace_out () =
  let generic (type s) (module P : Protocol.S with type state = s) ~note =
    let module E = Engine.Make (P) in
    (* One JSONL sink spans the whole invocation — initial run, --faults
       injection (as Fault events), recovery run — so recovery moves'
       cause chains reach back to the injection (see OBSERVABILITY.md).
       Per-round Φ only where the potential is cheap. *)
    let trace_oc = Option.map open_out trace_out in
    let events =
      Option.map
        (fun oc ->
          let sink = Events.stream ~record_phi:(List.mem algo [ "bfs"; "spt" ]) oc in
          Events.meta sink (meta @ [ ("edges", edges_json g) ]);
          sink)
        trace_oc
    in
    (* Each run gets fresh telemetry and watchdog, so after fault injection
       the emitted series is the recovery run — the one under study. *)
    let observed ?init_causes ?(round_offset = 0) ?(step_offset = 0) ~init () =
      let telemetry = Option.map (fun _ -> Telemetry.create ()) metrics_out in
      (* Observe-only watchdog: classify a non-silent exit (livelock vs
         bare exhaustion) instead of just reporting the hit limit. *)
      let wd = Watchdog.create () in
      let on_round round states =
        Watchdog.observe_round wd ~round ~hash:(Watchdog.config_hash states) ~phi:None
          ~snap:(fun () -> Marshal.to_string states [])
      in
      let r =
        E.run ~max_rounds ?telemetry ~on_round ?events ?init_causes ~round_offset
          ~step_offset g sched rng ~init
      in
      (r, telemetry, wd)
    in
    let init = if adversarial then E.adversarial rng g else E.initial g in
    let first = observed ~init () in
    let faults_skipped = ref false in
    let r, telemetry, wd =
      let r, _, _ = first in
      if faults > 0 then
        if r.E.silent then begin
          (* Pick first, corrupt second (same RNG stream as Fault.corrupt)
             so the fault events name the nodes actually hit and the
             recovery run's initially-enabled nodes can be attributed. *)
          let picked = Fault.pick_nodes rng ~n:(Graph.n g) ~k:faults in
          let corrupted =
            Fault.corrupt_nodes rng ~random_state:P.random_state g r.E.states picked
          in
          let init_causes =
            Option.map
              (fun sink ->
                let eids =
                  List.map
                    (fun v -> (v, Events.emit_fault sink ~node:v ~round:r.E.rounds))
                    picked
                in
                fun v ->
                  List.filter_map
                    (fun (u, e) -> if u = v || Graph.has_edge g u v then Some e else None)
                    eids)
              events
          in
          Format.printf "(injected %d faults after stabilization)@." faults;
          observed ?init_causes ~round_offset:r.E.rounds ~step_offset:r.E.steps
            ~init:corrupted ()
        end
        else begin
          faults_skipped := true;
          Format.eprintf
            "warning: --faults %d requested but the first run never stabilized (hit \
             its limits while non-silent); fault injection skipped@."
            faults;
          first
        end
      else first
    in
    (match (metrics_out, telemetry) with
    | Some path, Some tel ->
        Telemetry.write_json ~meta path tel;
        Format.printf "metrics      : written to %s (%a)@." path Telemetry.pp tel
    | _ -> ());
    (match (trace_out, events) with
    | Some path, Some sink ->
        Option.iter close_out trace_oc;
        Format.printf "trace        : %d events written to %s@." (Events.total sink) path
    | _ -> ());
    {
      algo;
      silent = r.E.silent;
      legal = r.E.legal;
      rounds = r.E.rounds;
      steps = r.E.steps;
      max_bits = r.E.max_bits;
      note = note r.E.states;
      verdict =
        (if r.E.silent then None
         else
           Some
             (Format.asprintf "%a" Watchdog.pp_verdict
                (Watchdog.verdict wd ~silent:false)));
      failed = !faults_skipped;
    }
  in
  match algo with
  | "bfs" ->
      generic
        (module Bfs_builder.P)
        ~note:(fun sts ->
          Printf.sprintf "phi = %d" (Bfs_builder.potential g sts))
  | "mst" ->
      generic
        (module Mst_builder.P)
        ~note:(fun sts ->
          match Mst_builder.tree_of g sts with
          | Some t ->
              Printf.sprintf "tree weight %d (MST weight %d)" (Tree.weight t g)
                (Mst.mst_weight g)
          | None -> "no tree")
  | "mdst" ->
      generic
        (module Mdst_builder.P)
        ~note:(fun sts ->
          match Mdst_builder.tree_of g sts with
          | Some t ->
              let fr, _, _ = Min_degree.furer_raghavachari g ~root:0 in
              Printf.sprintf "tree degree %d (sequential FR: %d)" (Tree.max_degree t)
                (Tree.max_degree fr)
          | None -> "no tree")
  | "spt" ->
      generic
        (module Spt_builder.P)
        ~note:(fun sts ->
          Printf.sprintf "potential = %d" (Spt_builder.potential g sts))
  | "adhoc-bfs" -> generic (module Adhoc_bfs.P) ~note:(fun _ -> "")
  | "compact-mst" ->
      generic
        (module Compact_mst.P)
        ~note:(fun _ ->
          if adversarial then "uncertified: may be silent yet wrong from garbage" else "")
  | "fullinfo-mst" -> generic (module Fullinfo.Mst_instance.P) ~note:(fun _ -> "")
  | "fullinfo-mdst" -> generic (module Fullinfo.Mdst_instance.P) ~note:(fun _ -> "")
  | other -> failwith (Printf.sprintf "unknown algorithm %S" other)

(* The flat struct-of-arrays executor (SCALING.md). No event/fault
   hooks by design — the equivalence suite pins it step-identical to
   the boxed engine, so tracing stays on the boxed path — but the
   telemetry series is supported and identical. *)
let packed_algos = [ "bfs"; "spt"; "adhoc-bfs" ]

let run_algo_packed algo g sched rng ~adversarial ~max_rounds ?(meta = []) ?metrics_out
    () =
  let generic (type s) (module B : Protocol.PACKED with type state = s) ~note =
    let module E = Engine_packed.Make (B) in
    let telemetry = Option.map (fun _ -> Telemetry.create ()) metrics_out in
    let init = if adversarial then E.adversarial rng g else E.initial g in
    let r = E.run ~max_rounds ?telemetry g sched rng ~init in
    (match (metrics_out, telemetry) with
    | Some path, Some tel ->
        Telemetry.write_json ~meta path tel;
        Format.printf "metrics      : written to %s (%a)@." path Telemetry.pp tel
    | _ -> ());
    {
      algo;
      silent = r.E.silent;
      legal = r.E.legal;
      rounds = r.E.rounds;
      steps = r.E.steps;
      max_bits = r.E.max_bits;
      note = note r.E.states;
      verdict = None;
      failed = false;
    }
  in
  match algo with
  | "bfs" ->
      generic
        (module Bfs_builder.Packed)
        ~note:(fun sts -> Printf.sprintf "phi = %d" (Bfs_builder.potential g sts))
  | "spt" ->
      generic
        (module Spt_builder.Packed)
        ~note:(fun sts -> Printf.sprintf "potential = %d" (Spt_builder.potential g sts))
  | "adhoc-bfs" -> generic (module Adhoc_bfs.Packed) ~note:(fun _ -> "")
  | other ->
      failwith
        (Printf.sprintf "--packed supports %s (got %S)"
           (String.concat ", " packed_algos)
           other)

let algos = Repro_campaign.Campaign.known_algos

open Cmdliner

let algo_arg =
  let doc = "Algorithm: " ^ String.concat ", " algos ^ "." in
  Arg.(value & opt string "mst" & info [ "algo"; "a" ] ~docv:"ALGO" ~doc)

let graph_arg =
  let doc = "Topology family: " ^ String.concat ", " Generators.all_names ^ "." in
  Arg.(value & opt string "gnp" & info [ "graph"; "g" ] ~docv:"FAMILY" ~doc)

let n_arg =
  Arg.(value & opt int 24 & info [ "nodes"; "n" ] ~docv:"N" ~doc:"Number of nodes.")
let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let sched_arg =
  let doc =
    "Scheduler: " ^ String.concat ", " (List.map fst Scheduler.extended) ^ "."
  in
  Arg.(value & opt string "random" & info [ "sched"; "s" ] ~docv:"SCHED" ~doc)

let adversarial_arg =
  Arg.(value & flag & info [ "adversarial" ] ~doc:"Start from arbitrary register contents.")

let faults_arg =
  Arg.(value & opt int 0 & info [ "faults" ] ~docv:"K" ~doc:"Corrupt K registers after stabilization and re-run.")

let max_rounds_arg =
  Arg.(value & opt int 200_000 & info [ "max-rounds" ] ~docv:"R" ~doc:"Round budget.")

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Attach a telemetry sink and write the per-round convergence series (enabled \
           nodes, writes, register bits, potential phi) plus metric summaries as JSON to \
           $(docv).")

let jobs_arg =
  Arg.(
    value
    & opt int (Pool.default_jobs ())
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Worker domains for independent campaign cells (default: the recommended \
           domain count of this machine). Artifacts are byte-identical in everything \
           but wall time at any value; $(docv)=1 runs the exact sequential path.")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Stream the structured event trace (one JSON object per line: moves with \
           rule tags and causal provenance, fault injections, round boundaries) to \
           $(docv); consume with $(b,repro-cli explain). Schema in OBSERVABILITY.md. \
           Tracing draws no randomness, so the run's outcome is unchanged.")

let packed_arg =
  Arg.(
    value
    & flag
    & info [ "packed" ]
        ~doc:
          "Execute on the flat struct-of-arrays engine (see SCALING.md) instead of the \
           boxed reference engine. Step-for-step identical on the same seed (pinned by \
           the equivalence suite) but sized for large $(b,--nodes). Supported for bfs, \
           spt and adhoc-bfs; incompatible with $(b,--faults) and $(b,--trace-out), \
           which need the boxed engine's event hooks.")

let run_cmd =
  let run algo family n seed sched adversarial faults max_rounds metrics_out trace_out
      packed =
    (* The single [seed] determines the topology, the initial configuration,
       and every scheduler/fault coin flip, so telemetry runs are exactly
       reproducible; the seed is recorded in the metrics meta block. *)
    let rng = Random.State.make [| seed |] in
    match Generators.by_name family with
    | None -> `Error (false, Printf.sprintf "unknown graph family %S" family)
    | Some gen -> (
        match Scheduler.by_name sched with
        | None -> `Error (false, Printf.sprintf "unknown scheduler %S" sched)
        | Some _ when packed && not (List.mem algo packed_algos) ->
            `Error
              ( false,
                Printf.sprintf "--packed supports %s (got %S)"
                  (String.concat ", " packed_algos)
                  algo )
        | Some _ when packed && (faults > 0 || trace_out <> None) ->
            `Error
              ( false,
                "--packed is incompatible with --faults and --trace-out (the packed \
                 engine has no event hooks; drop --packed for fault/trace runs)" )
        | Some scheduler ->
            let g = gen rng ~n in
            Format.printf "graph: %s n=%d m=%d@." family (Graph.n g) (Graph.m g);
            let meta =
              Metrics.Json.
                [
                  ("algo", Str algo); ("graph", Str family); ("n", Int (Graph.n g));
                  ("m", Int (Graph.m g)); ("seed", Int seed); ("sched", Str sched);
                  ("adversarial", Bool adversarial); ("faults", Int faults);
                ]
            in
            let o =
              if packed then
                run_algo_packed algo g scheduler rng ~adversarial ~max_rounds ~meta
                  ?metrics_out ()
              else
                run_algo algo g scheduler rng ~adversarial ~faults ~max_rounds ~meta
                  ?metrics_out ?trace_out ()
            in
            report o;
            if o.failed then exit 1;
            `Ok ())
  in
  Cmd.v (Cmd.info "run" ~doc:"Run a construction and report statistics.")
    Term.(
      ret
        (const run $ algo_arg $ graph_arg $ n_arg $ seed_arg $ sched_arg $ adversarial_arg
       $ faults_arg $ max_rounds_arg $ metrics_out_arg $ trace_out_arg $ packed_arg))

let sweep_cmd =
  let sweep algo family ns trials seed sched jobs =
    match (Generators.by_name family, Scheduler.by_name sched) with
    | None, _ -> `Error (false, Printf.sprintf "unknown graph family %S" family)
    | _, None -> `Error (false, Printf.sprintf "unknown scheduler %S" sched)
    | Some gen, Some sched ->
        let ns =
          String.split_on_char ',' ns
          |> List.filter_map (fun s -> int_of_string_opt (String.trim s))
        in
        (* Each (n, trial) cell derives its own RNG from the seed, so the
           cells are independent and the pool hands the rows back in
           canonical order for printing. *)
        let cells = List.concat_map (fun n -> List.init trials (fun t -> (n, t + 1))) ns in
        let rows =
          Pool.with_pool ~jobs (fun pool ->
              Pool.map pool
                (fun (n, trial) ->
                  let rng = Random.State.make [| seed; n; trial |] in
                  let g = gen rng ~n in
                  let o =
                    run_algo algo g sched rng ~adversarial:false ~faults:0
                      ~max_rounds:200_000 ()
                  in
                  Printf.sprintf "%s,%s,%d,%d,%d,%b,%b,%d,%d,%d" algo family (Graph.n g)
                    (Graph.m g) trial o.silent o.legal o.rounds o.steps o.max_bits)
                cells)
        in
        Format.printf "algo,graph,n,m,trial,silent,legal,rounds,steps,max_bits@.";
        List.iter (Format.printf "%s@.") rows;
        `Ok ()
  in
  let ns_arg =
    Arg.(
      value
      & opt string "8,16,24,32"
      & info [ "n-list" ] ~docv:"N1,N2,.." ~doc:"Comma-separated node counts.")
  in
  let trials_arg =
    Arg.(value & opt int 3 & info [ "trials" ] ~docv:"T" ~doc:"Trials per size.")
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Sweep an algorithm over sizes; print CSV rows.")
    Term.(
      ret
        (const sweep $ algo_arg $ graph_arg $ ns_arg $ trials_arg $ seed_arg $ sched_arg
       $ jobs_arg))

let bench_diff_cmd =
  let diff old_path new_path steps_tol require_identical =
    if require_identical then
      (* Schema-agnostic identity gate for parallel-campaign artifacts:
         same seeds at different --jobs must agree in every field except
         wall time. Works on BENCH_repro.json and CHAOS_repro.json. *)
      match
        (Repro_bench.Diff.load_json old_path, Repro_bench.Diff.load_json new_path)
      with
      | Error msg, _ | _, Error msg -> `Error (false, msg)
      | Ok old_json, Ok new_json -> (
          match Repro_bench.Diff.first_divergence old_json new_json with
          | None ->
              Format.printf "bench-diff: IDENTICAL (ignoring wall_ns)@.";
              `Ok ()
          | Some divergence ->
              Format.printf "artifacts differ at %s@." divergence;
              Format.printf "bench-diff: FAIL@.";
              exit 1)
    else
      let pct p = float_of_int p /. 100.0 in
      match (Repro_bench.Diff.load old_path, Repro_bench.Diff.load new_path) with
      | Error msg, _ | _, Error msg -> `Error (false, msg)
      | Ok old_records, Ok new_records ->
          let report =
            Repro_bench.Diff.diff ~steps_tol:(pct steps_tol) ~old_records ~new_records ()
          in
          Format.printf "%a" Repro_bench.Diff.pp_report report;
          if report.Repro_bench.Diff.comparisons = [] then
            `Error (false, "no overlapping records between the two artifacts")
          else if report.Repro_bench.Diff.failures > 0 then begin
            Format.printf "bench-diff: FAIL@.";
            exit 1
          end
          else begin
            Format.printf "bench-diff: OK@.";
            `Ok ()
          end
  in
  let old_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"OLD" ~doc:"Baseline BENCH_repro.json artifact.")
  in
  let new_arg =
    Arg.(
      required
      & pos 1 (some file) None
      & info [] ~docv:"NEW" ~doc:"Candidate BENCH_repro.json artifact.")
  in
  let steps_tol_arg =
    Arg.(
      value & opt int 10
      & info [ "steps-tol" ] ~docv:"PCT"
          ~doc:
            "Allowed regression in steps and rounds, percent (they are \
             deterministic for a pinned seed, so any growth is a semantic change).")
  in
  let require_identical_arg =
    Arg.(
      value & flag
      & info [ "require-identical" ]
          ~doc:
            "Identity mode: strip every wall_ns and qps field from both artifacts and \
             fail on any other difference (field drift, record order, missing/extra \
             records). Schema-agnostic, so it also gates CHAOS_repro.json and \
             SERVICE_repro.json produced at different --jobs values.")
  in
  Cmd.v
    (Cmd.info "bench-diff"
       ~doc:
         "Compare two BENCH_repro.json or SERVICE_repro.json artifacts; exit 1 on a \
          steps/rounds regression beyond tolerance (or, with --require-identical, on \
          any non-wall difference). wall_ns and qps are printed, never gated.")
    Term.(
      ret
        (const diff $ old_arg $ new_arg $ steps_tol_arg $ require_identical_arg))

let chaos_cmd =
  let module Campaign = Repro_campaign.Campaign in
  let chaos family n seeds seed algos_s plans_s daemons_s max_rounds max_injections
      stall_window cycle_repeats out jobs trace_dir =
    let split s =
      String.split_on_char ',' s |> List.map String.trim |> List.filter (fun x -> x <> "")
    in
    match Generators.by_name family with
    | None -> `Error (false, Printf.sprintf "unknown graph family %S" family)
    | Some gen -> (
        let plans_r =
          if plans_s = "defaults" then Ok Fault.Plan.defaults
          else Fault.Plan.parse_list plans_s
        in
        match plans_r with
        | Error msg -> `Error (false, msg)
        | Ok plans -> (
            let daemons = List.map (fun d -> (d, Scheduler.by_name d)) (split daemons_s) in
            match List.find_opt (fun (_, o) -> o = None) daemons with
            | Some (d, _) -> `Error (false, Printf.sprintf "unknown scheduler %S" d)
            | None -> (
                let daemons = List.map (fun (d, o) -> (d, Option.get o)) daemons in
                let algo_list = split algos_s in
                match List.find_opt (fun a -> not (List.mem a algos)) algo_list with
                | Some a -> `Error (false, Printf.sprintf "unknown algorithm %S" a)
                | None ->
                    (* The matrix is farmed out cell-by-cell; cells come
                       back in canonical order, so the CSV listing and the
                       artifact are byte-identical at any --jobs. *)
                    (match trace_dir with
                    | Some dir when not (Sys.file_exists dir) -> Sys.mkdir dir 0o755
                    | _ -> ());
                    let cells =
                      Pool.with_pool ~jobs (fun pool ->
                          Campaign.run_matrix ~pool ~gen ~n ~seeds ~seed_base:seed
                            ~algos:algo_list ~plans ~daemons ~max_rounds ~max_injections
                            ~stall_window ~cycle_repeats ?trace_dir ())
                    in
                    (match trace_dir with
                    | Some dir ->
                        Format.printf "traces: one JSONL file per cell in %s@." dir
                    | None -> ());
                    Format.printf "%s@." Campaign.csv_header;
                    List.iter (fun c -> Format.printf "%s@." (Campaign.csv_row c)) cells;
                    let failures = Campaign.failed cells in
                    let json =
                      Campaign.campaign_json ~family ~n ~seeds ~seed_base:seed ~max_rounds
                        ~max_injections cells
                    in
                    let oc = open_out out in
                    Fun.protect
                      ~finally:(fun () -> close_out oc)
                      (fun () -> Metrics.Json.to_channel oc json);
                    Format.printf "chaos: %d cells, %d recovered, %d failed -> %s@."
                      (List.length cells)
                      (List.length cells - failures)
                      failures out;
                    if failures > 0 then begin
                      Format.printf "chaos: FAIL@.";
                      exit 1
                    end;
                    `Ok ())))
  in
  let seeds_arg =
    Arg.(value & opt int 2 & info [ "seeds" ] ~docv:"S" ~doc:"Seeds per cell.")
  in
  let algos_arg =
    Arg.(
      value & opt string "bfs,mst,spt"
      & info [ "algos" ] ~docv:"A1,A2,.." ~doc:"Comma-separated algorithms.")
  in
  let plans_arg =
    Arg.(
      value & opt string "defaults"
      & info [ "plans" ] ~docv:"P1,P2,.."
          ~doc:
            "Comma-separated fault plans (grammar TARGET/PAYLOAD\\@TIMING; targets \
             random:K, nodes:1+2, root, deepest, subtree; payloads randomize, bitflip, \
             stale:D; timings silence, periodic:R, poisson:RATE), or 'defaults'.")
  in
  let daemons_arg =
    Arg.(
      value & opt string "random,distributed"
      & info [ "daemons" ] ~docv:"D1,D2,.."
          ~doc:
            "Comma-separated schedulers to sweep (greedy-max/greedy-min add the \
             potential-adversarial daemons). The synchronous daemon is deliberately \
             not a default: the MST builder can livelock under it from some \
             adversarial configurations (see EXPERIMENTS.md E8).")
  in
  let max_rounds_arg =
    Arg.(
      value & opt int 20_000
      & info [ "max-rounds" ] ~docv:"R" ~doc:"Round budget per episode.")
  in
  let max_injections_arg =
    Arg.(
      value & opt int 3
      & info [ "max-injections" ] ~docv:"K"
          ~doc:"Injection cap per episode for periodic/poisson plans.")
  in
  let stall_window_arg =
    Arg.(
      value & opt int 64
      & info [ "stall-window" ] ~docv:"W"
          ~doc:"Watchdog: rounds without a new potential minimum that count as a stall.")
  in
  let cycle_repeats_arg =
    Arg.(
      value & opt int 3
      & info [ "cycle-repeats" ] ~docv:"C"
          ~doc:
            "Watchdog: occurrences of one configuration hash that count as a livelock.")
  in
  let out_arg =
    Arg.(
      value & opt string "CHAOS_repro.json"
      & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Campaign artifact path.")
  in
  let trace_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"DIR"
          ~doc:
            "Stream one JSONL event trace per cell into $(docv) (created if missing), \
             named ALGO__PLAN__SCHED__sSEED.jsonl; every recovery move carries causal \
             provenance back to its fault injection (see OBSERVABILITY.md, \
             $(b,repro-cli explain)). Tracing draws no randomness: the campaign \
             artifact is byte-identical with or without it.")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run a seeded fault campaign (algorithms x fault plans x daemons x seeds); \
          write CHAOS_repro.json; exit 1 if any cell fails to recover.")
    Term.(
      ret
        (const chaos $ graph_arg $ n_arg $ seeds_arg $ seed_arg $ algos_arg $ plans_arg
       $ daemons_arg $ max_rounds_arg $ max_injections_arg $ stall_window_arg
       $ cycle_repeats_arg $ out_arg $ jobs_arg $ trace_dir_arg))

let serve_cmd =
  let module Service_campaign = Repro_campaign.Service_campaign in
  let module Churn = Repro_service.Churn in
  let serve family n seeds seed algos_s traces_s daemons_s max_rounds retry_budget
      max_retries queries_per_round stall_window cycle_repeats packed big big_nmax
      queries query_jobs out jobs trace_dir =
    let split s =
      String.split_on_char ',' s |> List.map String.trim |> List.filter (fun x -> x <> "")
    in
    match Generators.by_name family with
    | None -> `Error (false, Printf.sprintf "unknown graph family %S" family)
    | Some gen -> (
        let traces_r =
          if traces_s = "defaults" then Ok Churn.defaults
          else Churn.parse_list traces_s
        in
        match traces_r with
        | Error msg -> `Error (false, msg)
        | Ok traces -> (
            let daemons = List.map (fun d -> (d, Scheduler.by_name d)) (split daemons_s) in
            match List.find_opt (fun (_, o) -> o = None) daemons with
            | Some (d, _) -> `Error (false, Printf.sprintf "unknown scheduler %S" d)
            | None -> (
                let daemons = List.map (fun (d, o) -> (d, Option.get o)) daemons in
                let algo_list = split algos_s in
                match
                  List.find_opt
                    (fun a -> not (List.mem a Service_campaign.known_algos))
                    algo_list
                with
                | Some a -> `Error (false, Printf.sprintf "unknown algorithm %S" a)
                | None when packed && trace_dir <> None ->
                    `Error
                      ( false,
                        "--packed is incompatible with --trace-out (causal tracing \
                         needs the boxed engine)" )
                | None ->
                    (match trace_dir with
                    | Some dir when not (Sys.file_exists dir) -> Sys.mkdir dir 0o755
                    | _ -> ());
                    let query_jobs =
                      if query_jobs > 0 then query_jobs else Pool.default_jobs ()
                    in
                    let cells, baselines =
                      Pool.with_pool ~jobs:(max jobs query_jobs) (fun pool ->
                          let std =
                            Service_campaign.run_matrix ~pool ~gen ~n ~seeds
                              ~seed_base:seed ~algos:algo_list ~traces ~daemons
                              ~max_rounds ~retry_budget ~max_retries
                              ~queries_per_round ~stall_window ~cycle_repeats ~packed
                              ?trace_dir ()
                          in
                          if not big then (std, [])
                          else begin
                            (* The big serve-bench tier: qps vs churn rate
                               (two flash-crowd intensities) at growing n,
                               clamped by --big-nmax like the bench tier. *)
                            let big_traces =
                              [
                                { Churn.spec = Churn.Flash_crowd 2;
                                  timing = Churn.At_silence };
                                { Churn.spec = Churn.Flash_crowd 8;
                                  timing = Churn.At_silence };
                              ]
                            in
                            let ns =
                              List.filter
                                (fun x -> x <= big_nmax)
                                Service_campaign.big_ns
                            in
                            let bench, baselines =
                              Service_campaign.run_bench ~pool ~ns
                                ~algos:Service_campaign.big_algos ~traces:big_traces
                                ~seed_base:seed ~queries ~query_jobs ~packed
                                ~baseline_nmax:1_000 ~max_rounds ~retry_budget
                                ~max_retries ~queries_per_round ~stall_window
                                ~cycle_repeats ()
                            in
                            (std @ bench, baselines)
                          end)
                    in
                    (match trace_dir with
                    | Some dir ->
                        Format.printf "traces: one JSONL file per cell in %s@." dir
                    | None -> ());
                    Format.printf "%s@." Service_campaign.csv_header;
                    List.iter
                      (fun c -> Format.printf "%s@." (Service_campaign.csv_row c))
                      cells;
                    List.iter
                      (fun (b : Service_campaign.baseline) ->
                        Format.printf
                          "serve-bench baseline: algo=%s trace=%s n=%d \
                           snapshot_qps=%d chase_qps=%d speedup=%.1fx@."
                          b.Service_campaign.b_algo b.Service_campaign.b_trace
                          b.Service_campaign.b_n b.Service_campaign.b_snapshot_qps
                          b.Service_campaign.b_chase_qps
                          (float_of_int b.Service_campaign.b_snapshot_qps
                          /. float_of_int (max 1 b.Service_campaign.b_chase_qps)))
                      baselines;
                    let failures = Service_campaign.failed cells in
                    let json =
                      Service_campaign.campaign_json ~family ~n ~seeds ~seed_base:seed
                        ~traces ~retry_budget ~max_retries ~queries_per_round cells
                    in
                    let oc = open_out out in
                    Fun.protect
                      ~finally:(fun () -> close_out oc)
                      (fun () -> Metrics.Json.to_channel oc json);
                    Format.printf "serve: %d cells, %d recovered, %d failed -> %s@."
                      (List.length cells)
                      (List.length cells - failures)
                      failures out;
                    if failures > 0 then begin
                      (* Name every failing cell before the hard exit: the
                         full key identifies the episode to re-run and the
                         watchdog verdict says how it died. *)
                      List.iter
                        (fun c ->
                          if not (Service_campaign.recovered c) then
                            Format.printf "serve: FAILED %s@."
                              (Service_campaign.failure_line c))
                        cells;
                      Format.printf "serve: FAIL@.";
                      exit 1
                    end;
                    `Ok ())))
  in
  let seeds_arg =
    Arg.(value & opt int 2 & info [ "seeds" ] ~docv:"S" ~doc:"Seeds per cell.")
  in
  let algos_arg =
    Arg.(
      value & opt string "bfs,mst,spt"
      & info [ "algos" ] ~docv:"A1,A2,.."
          ~doc:"Comma-separated tree builders (bfs, mst, mdst, spt, adhoc-bfs).")
  in
  let traces_arg =
    Arg.(
      value & opt string "defaults"
      & info [ "traces" ] ~docv:"T1,T2,.."
          ~doc:
            "Comma-separated churn traces (grammar SPEC\\@TIMING; ops add:U+V+W, \
             del:U+V, reweight:U+V+W, join:A+W, leave:V joined by ';'; canned specs \
             flash-crowd:K, regional:K, maintenance:K; timings silence, every:R), or \
             'defaults'.")
  in
  let daemons_arg =
    Arg.(
      value & opt string "random,distributed"
      & info [ "daemons" ] ~docv:"D1,D2,.."
          ~doc:
            "Comma-separated schedulers to sweep. Each cell's escalation rung uses a \
             daemon of the other family (random <-> distributed).")
  in
  let max_rounds_arg =
    Arg.(
      value & opt int 20_000
      & info [ "max-rounds" ] ~docv:"R" ~doc:"Global round budget per episode.")
  in
  let retry_budget_arg =
    Arg.(
      value & opt int 2_000
      & info [ "retry-budget" ] ~docv:"R"
          ~doc:
            "Round budget of each degradation-ladder rung past the first attempt (the \
             first attempt gets R from an every:R timing, this budget under silence).")
  in
  let max_retries_arg =
    Arg.(
      value & opt int 2
      & info [ "max-retries" ] ~docv:"K"
          ~doc:"Same-daemon retries before escalating to the fallback daemon.")
  in
  let queries_per_round_arg =
    Arg.(
      value & opt int 2
      & info [ "queries-per-round" ] ~docv:"Q"
          ~doc:
            "Pair reads served from the committed label snapshot at every round \
             boundary of a recovery (parent/root/degree/ancestor/nca/route-length \
             lookups, re-checked for staleness when the event closes).")
  in
  let stall_window_arg =
    Arg.(
      value & opt int 64
      & info [ "stall-window" ] ~docv:"W"
          ~doc:"Watchdog: rounds without a new potential minimum that count as a stall.")
  in
  let cycle_repeats_arg =
    Arg.(
      value & opt int 3
      & info [ "cycle-repeats" ] ~docv:"C"
          ~doc:
            "Watchdog: occurrences of one configuration hash that count as a livelock.")
  in
  let packed_arg =
    Arg.(
      value & flag
      & info [ "packed" ]
          ~doc:
            "Drive fixed-width builders (bfs, spt, adhoc-bfs) with the \
             struct-of-arrays service engine: registers live in the packed int bank \
             across the whole episode, churn migration copies surviving lanes \
             verbatim, joiners boot adversarially in-bank. Episode-equivalent to the \
             boxed engine (same seeds, same artifact modulo wall-derived fields); \
             variable-width builders (mst, mdst) always run boxed. Incompatible with \
             $(b,--trace-out).")
  in
  let big_arg =
    Arg.(
      value & flag
      & info [ "big" ]
          ~doc:
            "Append the big serve-bench tier: bfs/spt x n in {1e3,1e4,1e5} x two \
             flash-crowd intensities under the synchronous daemon, each episode \
             followed by a timed batch of snapshot pair queries; cells carry \
             tier=big and qps. At n=1000 the O(n) parent-chase baseline is measured \
             too and printed for comparison.")
  in
  let big_nmax_arg =
    Arg.(
      value & opt int 100_000
      & info [ "big-nmax" ] ~docv:"N"
          ~doc:"Clamp the big-tier sizes to n <= $(docv) (CI uses 1000).")
  in
  let queries_arg =
    Arg.(
      value & opt int 200_000
      & info [ "queries" ] ~docv:"Q"
          ~doc:"Pair queries per big-tier qps measurement batch.")
  in
  let query_jobs_arg =
    Arg.(
      value & opt int 0
      & info [ "query-jobs" ] ~docv:"W"
          ~doc:
            "Worker streams a big-tier query batch fans out over (0 = the pool \
             default). Each stream draws from its own seeded RNG and results merge \
             in canonical worker order, so everything but the wall-derived qps is \
             independent of $(docv).")
  in
  let out_arg =
    Arg.(
      value & opt string "SERVICE_repro.json"
      & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Campaign artifact path.")
  in
  let trace_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"DIR"
          ~doc:
            "Stream one JSONL event trace per cell into $(docv) (created if missing), \
             named ALGO__TRACE__SCHED__sSEED.jsonl; every recovery move carries causal \
             provenance back to the churn event (topology edit) that woke it (see \
             OBSERVABILITY.md, $(b,repro-cli explain)). Tracing draws no randomness: \
             the campaign artifact is byte-identical with or without it.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run a service-mode churn campaign (tree builders x churn traces x daemons x \
          seeds): stabilize, stream topology edits against the live graph, serve reads \
          from committed labels while the builder re-stabilizes under a watchdogged \
          degradation ladder; write SERVICE_repro.json; exit 1 if any cell fails to \
          recover.")
    Term.(
      ret
        (const serve $ graph_arg $ n_arg $ seeds_arg $ seed_arg $ algos_arg $ traces_arg
       $ daemons_arg $ max_rounds_arg $ retry_budget_arg $ max_retries_arg
       $ queries_per_round_arg $ stall_window_arg $ cycle_repeats_arg $ packed_arg
       $ big_arg $ big_nmax_arg $ queries_arg $ query_jobs_arg $ out_arg $ jobs_arg
       $ trace_dir_arg))

let slurp path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let explain_cmd =
  let explain trace_file html top =
    match Explain.parse (slurp trace_file) with
    | Error msg -> `Error (false, Printf.sprintf "%s: %s" trace_file msg)
    | Ok t ->
        let report = Explain.analyze ~top t in
        print_string (Explain.to_text report);
        (match html with
        | Some path ->
            let oc = open_out path in
            Fun.protect
              ~finally:(fun () -> close_out oc)
              (fun () -> output_string oc (Explain.to_html report));
            Format.printf "html: written to %s@." path
        | None -> ());
        `Ok ()
  in
  let trace_file_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"TRACE"
          ~doc:"JSONL event trace, from $(b,run --trace-out) or $(b,chaos --trace-out).")
  in
  let html_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "html" ] ~docv:"FILE"
          ~doc:"Also write the report as a self-contained HTML page to $(docv).")
  in
  let top_arg =
    Arg.(
      value & opt int 10
      & info [ "top" ] ~docv:"K" ~doc:"How many hot nodes to list (default 10).")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Render a convergence narrative from an event trace: per-rule move breakdown, \
          Φ milestones, hot nodes, activation-DAG shape, and one causal-cone summary \
          per fault injection.")
    Term.(ret (const explain $ trace_file_arg $ html_arg $ top_arg))

let validate_cmd =
  let validate file kind =
    let contents = slurp file in
    let kind =
      match kind with
      | `Auto -> (
          match Schema.sniff contents with
          | Some k -> Ok k
          | None ->
              Error
                "cannot sniff the artifact kind (no ev/experiments/cells field); pass \
                 --kind")
      | (`Bench | `Chaos | `Service | `Trace) as k -> Ok k
    in
    match kind with
    | Error msg -> `Error (false, msg)
    | Ok k -> (
        let kind_name =
          match k with
          | `Bench -> "bench"
          | `Chaos -> "chaos"
          | `Service -> "service"
          | `Trace -> "trace"
        in
        let result =
          match k with
          | `Trace -> Schema.validate_trace contents
          | (`Bench | `Chaos | `Service) as k -> (
              match Metrics.Json.of_string contents with
              | None -> Error "not valid JSON"
              | Some j -> (
                  match k with
                  | `Bench -> Schema.validate_bench j
                  | `Chaos -> Schema.validate_chaos j
                  | `Service -> Schema.validate_service j))
        in
        match result with
        | Ok count ->
            Format.printf "validate: OK (%s, %d records)@." kind_name count;
            `Ok ()
        | Error msg ->
            Format.printf "validate: FAIL (%s): %s@." kind_name msg;
            exit 1)
  in
  let file_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:"BENCH_repro.json, CHAOS_repro.json, SERVICE_repro.json, or a JSONL event trace.")
  in
  let kind_arg =
    Arg.(
      value
      & opt
          (enum
             [
               ("auto", `Auto);
               ("bench", `Bench);
               ("chaos", `Chaos);
               ("service", `Service);
               ("trace", `Trace);
             ])
          `Auto
      & info [ "kind" ] ~docv:"KIND"
          ~doc:"Artifact kind: $(docv) is auto, bench, chaos, service or trace.")
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:
         "Validate a committed artifact or event trace against its schema; exit 1 on \
          the first violation.")
    Term.(ret (const validate $ file_arg $ kind_arg))

let list_cmd =
  let list () =
    Format.printf "algorithms: %s@." (String.concat ", " algos);
    Format.printf "graphs:     %s@." (String.concat ", " Generators.all_names);
    Format.printf "schedulers: %s@." (String.concat ", " (List.map fst Scheduler.extended));
    Format.printf "fault plans: %s (grammar: TARGET/PAYLOAD@TIMING)@."
      (String.concat ", " (List.map Fault.Plan.name Fault.Plan.defaults));
    Format.printf "churn traces: %s (grammar: SPEC@TIMING)@."
      (String.concat ", " (List.map Repro_service.Churn.name Repro_service.Churn.defaults))
  in
  Cmd.v (Cmd.info "list" ~doc:"List algorithms, graph families and schedulers.")
    Term.(const list $ const ())

let () =
  let info =
    Cmd.info "repro-cli" ~version:"1.0.0"
      ~doc:
        "Silent self-stabilizing constrained spanning tree constructions (Blin & \
         Fraigniaud, ICDCS 2015)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            run_cmd;
            sweep_cmd;
            chaos_cmd;
            serve_cmd;
            bench_diff_cmd;
            explain_cmd;
            validate_cmd;
            list_cmd;
          ]))
