(* Command-line driver: run any of the self-stabilizing constructions on
   any generated topology and report convergence statistics.

     dune exec bin/repro_cli.exe -- run --algo mst --graph gnp --nodes 30
     dune exec bin/repro_cli.exe -- run --algo mdst --graph geometric \
         --nodes 24 --sched adversary --adversarial
     dune exec bin/repro_cli.exe -- list *)

open Repro_graph
open Repro_runtime
module Builders = Repro_campaign.Builders
module Campaign = Repro_campaign.Campaign
module Service_campaign = Repro_campaign.Service_campaign
module Churn = Repro_service.Churn

let report (o : Builders.outcome) =
  Format.printf "algorithm    : %s@." o.algo;
  Format.printf "silent       : %b@." o.silent;
  Format.printf "legal        : %b@." o.legal;
  Format.printf "rounds       : %d@." o.rounds;
  Format.printf "steps        : %d@." o.steps;
  Format.printf "max register : %d bits@." o.max_bits;
  (match o.verdict with Some v -> Format.printf "verdict      : %s@." v | None -> ());
  if o.note <> "" then Format.printf "result       : %s@." o.note

open Cmdliner

(* Every output file is opened before any simulation work, so an
   unwritable path fails at once with its own exit code instead of
   after the run as an uncaught exception. *)
let exit_unwritable = 2

let exits =
  Cmd.Exit.info exit_unwritable ~doc:"when an output file or directory cannot be written."
  :: Cmd.Exit.defaults

let cannot_write path reason =
  let prefix = path ^ ": " in
  let reason =
    if String.starts_with ~prefix reason then
      String.sub reason (String.length prefix) (String.length reason - String.length prefix)
    else reason
  in
  Format.eprintf "repro-cli: cannot write %s: %s@." path reason;
  exit exit_unwritable

let open_out_or_exit path = try open_out path with Sys_error reason -> cannot_write path reason

(* An optional output path, paired with its opened channel. *)
let open_opt = Option.map (fun path -> (path, open_out_or_exit path))

(* Converters keep the name the user typed next to the value: it lands
   in metrics meta blocks and artifact headers. *)
let named what by_name =
  Arg.conv'
    ( (fun s ->
        match by_name (String.trim s) with
        | Some v -> Ok (String.trim s, v)
        | None -> Error (Printf.sprintf "unknown %s %S" what s)),
      fun ppf (s, _) -> Format.pp_print_string ppf s )

let pick by_name s = (s, Option.get (by_name s))

(* Counts the user types: a node, seed, trial or round count below 1,
   or a fault count below 0, is a usage error (exit 124) instead of an
   exception from deep inside a run or a silently empty campaign. *)
let int_at_least lo expected =
  Arg.conv'
    ( (fun s ->
        match int_of_string_opt (String.trim s) with
        | Some k when k >= lo -> Ok k
        | _ -> Error (Printf.sprintf "invalid value '%s', expected %s" s expected)),
      Format.pp_print_int )

let positive = int_at_least 1 "a positive integer"
let non_negative = int_at_least 0 "a non-negative integer"

let builder =
  Arg.conv'
    ( (fun s ->
        Option.to_result ~none:(Printf.sprintf "unknown algorithm %S" s)
          (Builders.find (String.trim s))),
      fun ppf b -> Format.pp_print_string ppf (Builders.name b) )

let algo_arg =
  let doc =
    "Algorithm: " ^ String.concat ", " (List.map Builders.name Builders.all) ^ "."
  in
  Arg.(value & opt builder Builders.mst & info [ "algo"; "a" ] ~docv:"ALGO" ~doc)

let graph_arg =
  let doc = "Topology family: " ^ String.concat ", " Generators.all_names ^ "." in
  Arg.(
    value
    & opt (named "graph family" Generators.by_name) (pick Generators.by_name "gnp")
    & info [ "graph"; "g" ] ~docv:"FAMILY" ~doc)

let n_arg =
  Arg.(value & opt positive 24 & info [ "nodes"; "n" ] ~docv:"N" ~doc:"Number of nodes.")
let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let scheduler = named "scheduler" Scheduler.by_name

let sched_arg =
  let doc =
    "Scheduler: " ^ String.concat ", " (List.map fst Scheduler.extended) ^ "."
  in
  Arg.(
    value
    & opt scheduler (pick Scheduler.by_name "random")
    & info [ "sched"; "s" ] ~docv:"SCHED" ~doc)

let adversarial_arg =
  Arg.(value & flag & info [ "adversarial" ] ~doc:"Start from arbitrary register contents.")

let faults_arg =
  Arg.(
    value
    & opt non_negative 0
    & info [ "faults" ] ~docv:"K" ~doc:"Corrupt K registers after stabilization and re-run.")

let max_rounds_arg =
  Arg.(value & opt positive 200_000 & info [ "max-rounds" ] ~docv:"R" ~doc:"Round budget.")

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Write the per-round convergence series (enabled nodes, writes, register \
           bits, potential phi) and its summary as JSON to $(docv). The series is folded \
           from the same event sink as $(b,--trace-out), so tracing never changes it.")

let jobs_arg =
  Arg.(
    value
    & opt int (Pool.default_jobs ())
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Worker domains for independent campaign cells (default: the recommended \
           domain count of this machine). Artifacts are byte-identical at any value; \
           $(docv)=1 runs the exact sequential path.")

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

let run_cmd =
  let run b (family, gen) n seed (sched_name, sched) adversarial faults max_rounds
      metrics_out trace_out =
    (* The single [seed] determines the topology, the initial configuration,
       and every scheduler/fault coin flip, so metrics runs are exactly
       reproducible; the seed is recorded in the metrics meta block. *)
    let metrics = open_opt metrics_out and trace = open_opt trace_out in
    let rng = Random.State.make [| seed |] in
    let g = gen rng ~n in
    Format.printf "graph: %s n=%d m=%d@." family (Graph.n g) (Graph.m g);
    let meta =
      Metrics.Json.
        [
          ("algo", Str (Builders.name b)); ("graph", Str family); ("n", Int (Graph.n g));
          ("m", Int (Graph.m g)); ("seed", Int seed); ("sched", Str sched_name);
          ("adversarial", Bool adversarial); ("faults", Int faults);
        ]
    in
    (* One sink records the whole invocation — initial run, --faults
       injection (as Fault events), recovery run — on one timeline, so
       recovery moves' cause chains reach back to the injection (see
       OBSERVABILITY.md) and the metrics series is folded from the same
       events the trace holds. *)
    let record_phi = metrics_out <> None || Builders.cheap_phi b in
    let events =
      match trace with
      | Some (_, oc) ->
          let sink = Events.stream ~record_phi oc in
          Events.meta sink (meta @ Events.edges_meta g);
          Some sink
      | None -> Option.map (fun _ -> Events.series ~record_phi ()) metrics
    in
    let o = Builders.run ?events ~faults ~adversarial ~max_rounds b g sched rng in
    if o.injected then Format.printf "(injected %d faults after stabilization)@." faults
    else if faults > 0 then
      Format.eprintf
        "warning: --faults %d requested but the first run never stabilized (hit its \
         limits while non-silent); fault injection skipped@."
        faults;
    (match (events, metrics) with
    | Some sink, Some (path, oc) ->
        Metrics.Json.to_channel oc (Events.series_json ~meta sink);
        close_out oc;
        Format.printf "metrics      : written to %s (%a)@." path Events.pp_series sink
    | _ -> ());
    (match (events, trace) with
    | Some sink, Some (path, oc) ->
        close_out oc;
        Format.printf "trace        : %d events written to %s@." (Events.total sink) path
    | _ -> ());
    report o;
    if faults > 0 && not o.injected then exit 1
  in
  Cmd.v
    (Cmd.info "run" ~exits
       ~doc:
         "Run a construction and report statistics. Builders with a fixed-width codec \
          run on the packed engine, the others on the boxed one; both run the same \
          executor with the same hooks (see SCALING.md).")
    Term.(
      const run $ algo_arg $ graph_arg $ n_arg $ seed_arg $ sched_arg $ adversarial_arg
      $ faults_arg $ max_rounds_arg $ metrics_out_arg $ trace_out_arg)

let sweep_cmd =
  let sweep b (family, gen) ns trials seed (_, sched) jobs =
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
              let o = Builders.run ~adversarial:false ~max_rounds:200_000 b g sched rng in
              Printf.sprintf "%s,%s,%d,%d,%d,%b,%b,%d,%d,%d" o.algo family (Graph.n g)
                (Graph.m g) trial o.silent o.legal o.rounds o.steps o.max_bits)
            cells)
    in
    Format.printf "algo,graph,n,m,trial,silent,legal,rounds,steps,max_bits@.";
    List.iter (Format.printf "%s@.") rows
  in
  let ns_arg =
    Arg.(
      value
      & opt (list positive) [ 8; 16; 24; 32 ]
      & info [ "n-list" ] ~docv:"N1,N2,.." ~doc:"Comma-separated node counts.")
  in
  let trials_arg =
    Arg.(value & opt positive 3 & info [ "trials" ] ~docv:"T" ~doc:"Trials per size.")
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Sweep an algorithm over sizes; print CSV rows.")
    Term.(
      const sweep $ algo_arg $ graph_arg $ ns_arg $ trials_arg $ seed_arg $ sched_arg
      $ jobs_arg)

let bench_diff_cmd =
  let diff old_path new_path require_identical =
    if require_identical then
      (* Schema-agnostic identity gate for parallel-campaign artifacts:
         same seeds at different --jobs must agree in every field. Works
         on BENCH_repro.json, CHAOS_repro.json and SERVICE_repro.json. *)
      match
        (Repro_bench.Diff.load_json old_path, Repro_bench.Diff.load_json new_path)
      with
      | Error msg, _ | _, Error msg -> `Error (false, msg)
      | Ok old_json, Ok new_json -> (
          match Repro_bench.Diff.first_divergence old_json new_json with
          | None ->
              Format.printf "bench-diff: IDENTICAL@.";
              `Ok ()
          | Some divergence ->
              Format.printf "artifacts differ at %s@." divergence;
              Format.printf "bench-diff: FAIL@.";
              exit 1)
    else
      match (Repro_bench.Diff.load old_path, Repro_bench.Diff.load new_path) with
      | Error msg, _ | _, Error msg -> `Error (false, msg)
      | Ok old_records, Ok new_records ->
          let report = Repro_bench.Diff.diff ~old_records ~new_records in
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
  let require_identical_arg =
    Arg.(
      value & flag
      & info [ "require-identical" ]
          ~doc:
            "Identity mode: fail on any difference between the two JSON documents \
             (field drift, record order, missing/extra records). Schema-agnostic, so \
             it also gates CHAOS_repro.json and SERVICE_repro.json produced at \
             different --jobs values.")
  in
  Cmd.v
    (Cmd.info "bench-diff"
       ~doc:
         "Compare two BENCH_repro.json or SERVICE_repro.json artifacts; exit 1 if any \
          record both carry differs in steps, rounds or max_bits (or, with \
          --require-identical, on any difference at all).")
    Term.(ret (const diff $ old_arg $ new_arg $ require_identical_arg))

(* The flags chaos and serve share: topology, matrix axes (builders,
   daemons, seeds), artifact path, pool size and trace directory.
   Without --out no artifact is written, so a quick run never replaces
   a committed CHAOS_repro.json or SERVICE_repro.json. *)
type matrix = {
  family : string;
  gen : Random.State.t -> n:int -> Graph.t;
  n : int;
  seeds : int;
  seed : int;
  algos : Builders.t list;
  daemons : (string * Scheduler.t) list;
  out : string option;
  jobs : int;
  trace_dir : string option;
}

let matrix_term ~cmd ~eligible ~show ~artifact ~axis ~cause ~daemons_doc =
  let make (family, gen) n seeds seed algos daemons out jobs trace_dir =
    match List.find_opt (fun b -> not (eligible b)) algos with
    | Some b -> `Error (false, Printf.sprintf "%s cannot run %s" cmd (Builders.name b))
    | None ->
        `Ok { family; gen; n; seeds; seed; algos; daemons; out; jobs; trace_dir }
  in
  let seeds_arg =
    Arg.(value & opt positive 2 & info [ "seeds" ] ~docv:"S" ~doc:"Seeds per cell.")
  in
  let algos_arg =
    let names = List.map show (List.filter eligible Builders.all) in
    Arg.(
      value
      & opt (list builder) Builders.flagship
      & info [ "algos" ] ~docv:"A1,A2,.."
          ~doc:("Comma-separated builders: " ^ String.concat ", " names ^ "."))
  in
  let daemons_arg =
    Arg.(
      value
      & opt (list scheduler) (List.map (pick Scheduler.by_name) [ "random"; "distributed" ])
      & info [ "daemons" ] ~docv:"D1,D2,.."
          ~doc:("Comma-separated schedulers to sweep. " ^ daemons_doc))
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"FILE"
          ~doc:
            (Printf.sprintf
               "Write the campaign artifact to $(docv) (the committed one is %s). Without                 it no artifact is written."
               artifact))
  in
  let trace_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"DIR"
          ~doc:
            (Printf.sprintf
               "Stream one JSONL event trace per cell into $(docv) (created if missing), \
                named ALGO__%s__SCHED__sSEED.jsonl; every recovery move carries causal \
                provenance back to %s (see OBSERVABILITY.md, $(b,repro-cli explain)). \
                Tracing draws no randomness: the campaign artifact is byte-identical \
                with or without it."
               axis cause))
  in
  Term.(
    ret
      (const make $ graph_arg $ n_arg $ seeds_arg $ seed_arg $ algos_arg $ daemons_arg
     $ out_arg $ jobs_arg $ trace_dir_arg))

(* The artifact is opened and the trace directory made (if missing)
   before any cell runs. *)
let open_outputs m =
  let oc = open_opt m.out in
  (match m.trace_dir with
  | Some dir when Sys.file_exists dir ->
      if not (Sys.is_directory dir) then cannot_write dir "Not a directory"
  | Some dir -> ( try Sys.mkdir dir 0o755 with Sys_error reason -> cannot_write dir reason)
  | None -> ());
  oc

(* The cells come back in canonical order, so the listing and the
   artifact are byte-identical at any --jobs. Every failing cell is
   named before the hard exit: the full key identifies the episode to
   re-run and the watchdog verdict says how it died. *)
let finish cmd m oc ~lines ~json ~cells ~failed =
  (match m.trace_dir with
  | Some dir -> Format.printf "traces: one JSONL file per cell in %s@." dir
  | None -> ());
  List.iter (Format.printf "%s@.") lines;
  Option.iter
    (fun (_, oc) ->
      Fun.protect ~finally:(fun () -> close_out oc) (fun () -> Metrics.Json.to_channel oc json))
    oc;
  let failures = List.length failed in
  Format.printf "%s: %d cells, %d recovered, %d failed -> %s@." cmd cells (cells - failures)
    failures
    (match oc with Some (path, _) -> path | None -> "no artifact (--out FILE writes one)");
  if failed <> [] then begin
    List.iter (Format.printf "%s: FAILED %s@." cmd) failed;
    Format.printf "%s: FAIL@." cmd;
    exit 1
  end

let chaos_cmd =
  let chaos m plans =
    let oc = open_outputs m in
    let cells =
      Pool.with_pool ~jobs:m.jobs (fun pool ->
          Campaign.chaos_matrix ~pool ~gen:m.gen ~n:m.n ~seeds:m.seeds ~seed_base:m.seed
            ~algos:m.algos ~plans ~daemons:m.daemons ?trace_dir:m.trace_dir ())
    in
    finish "chaos" m oc
      ~lines:(Campaign.csv_header :: List.map Campaign.csv_row cells)
      ~json:
        (Campaign.campaign_json ~family:m.family ~n:m.n ~seeds:m.seeds ~seed_base:m.seed
           cells)
      ~cells:(List.length cells)
      ~failed:
        (List.filter_map
           (fun c -> if c.Campaign.recovered then None else Some (Campaign.failure_line c))
           cells)
  in
  let plans_arg =
    let parse s =
      if s = "defaults" then Ok Fault.Plan.defaults else Fault.Plan.parse_list s
    in
    let print ppf ps =
      Format.pp_print_string ppf (String.concat "," (List.map Fault.Plan.name ps))
    in
    Arg.(
      value
      & opt (conv' (parse, print)) Fault.Plan.defaults
      & info [ "plans" ] ~docv:"P1,P2,.."
          ~doc:
            "Comma-separated fault plans (grammar TARGET/PAYLOAD@TIMING; targets \
             random:K, nodes:1+2, root, deepest, subtree; payloads randomize, bitflip, \
             stale:D; timings silence, periodic:R, poisson:RATE), or 'defaults'.")
  in
  let matrix =
    matrix_term ~cmd:"chaos" ~eligible:(fun _ -> true) ~show:Builders.name
      ~artifact:"CHAOS_repro.json" ~axis:"PLAN" ~cause:"its fault injection"
      ~daemons_doc:
        "Greedy-max/greedy-min add the potential-adversarial daemons. The synchronous \
         daemon is deliberately not a default: the MST builder can livelock under it \
         from some adversarial configurations (see EXPERIMENTS.md E8)."
  in
  Cmd.v
    (Cmd.info "chaos" ~exits
       ~doc:
         "Run a seeded fault campaign (algorithms x fault plans x daemons x seeds); \
          write its artifact to --out; exit 1 if any cell fails to recover.")
    Term.(const chaos $ matrix $ plans_arg)

let serve_cmd =
  let serve m traces big big_nmax =
    let oc = open_outputs m in
    let cells =
      Pool.with_pool ~jobs:m.jobs (fun pool ->
          let std =
            Service_campaign.churn_matrix ~pool ~gen:m.gen ~n:m.n ~seeds:m.seeds
              ~seed_base:m.seed ~algos:m.algos ~traces ~daemons:m.daemons
              ?trace_dir:m.trace_dir ()
          in
          if big then
            std @ Service_campaign.big_matrix ~pool ~nmax:big_nmax ~seed_base:m.seed
          else std)
    in
    finish "serve" m oc
      ~lines:(Service_campaign.csv_header :: List.map Service_campaign.csv_row cells)
      ~json:
        (Service_campaign.campaign_json ~family:m.family ~n:m.n ~seeds:m.seeds
           ~seed_base:m.seed ~traces cells)
      ~cells:(List.length cells)
      ~failed:
        (List.filter_map
           (fun c ->
             if Service_campaign.recovered c then None
             else Some (Service_campaign.failure_line c))
           cells)
  in
  let traces_arg =
    let parse s = if s = "defaults" then Ok Churn.defaults else Churn.parse_list s in
    let print ppf ts =
      Format.pp_print_string ppf (String.concat "," (List.map Churn.name ts))
    in
    Arg.(
      value
      & opt (conv' (parse, print)) Churn.defaults
      & info [ "traces" ] ~docv:"T1,T2,.."
          ~doc:
            "Comma-separated churn traces (grammar SPEC@TIMING; ops add:U+V+W, \
             del:U+V, reweight:U+V+W, join:A+W, leave:V joined by ';'; canned specs \
             flash-crowd:K, regional:K, maintenance:K; timings silence, every:R), or \
             'defaults'.")
  in
  let big_arg =
    Arg.(
      value & flag
      & info [ "big" ]
          ~doc:
            (Printf.sprintf
               "Append the big serve-bench tier: %s x n in {1e3,1e4,1e5} x two \
                flash-crowd intensities under the synchronous daemon; cells carry \
                tier=big."
               (String.concat "/" (List.map Builders.name Service_campaign.big_algos))))
  in
  let big_nmax_arg =
    Arg.(
      value & opt int 100_000
      & info [ "big-nmax" ] ~docv:"N"
          ~doc:"Clamp the big-tier sizes to n <= $(docv) (CI uses 1000).")
  in
  let matrix =
    matrix_term ~cmd:"serve" ~eligible:Builders.serves ~show:Builders.describe
      ~artifact:"SERVICE_repro.json" ~axis:"TRACE"
      ~cause:"the churn event (topology edit) that woke it"
      ~daemons_doc:
        "Each cell's escalation rung uses a daemon of the other family (random <-> \
         distributed)."
  in
  Cmd.v
    (Cmd.info "serve" ~exits
       ~doc:
         "Run a service-mode churn campaign (tree builders x churn traces x daemons x \
          seeds): stabilize, stream topology edits against the live graph, serve reads \
          from committed labels while the builder re-stabilizes under a watchdogged \
          degradation ladder; write its artifact to --out; exit 1 if any cell fails to \
          recover. Builders with a fixed-width codec run on the packed service engine \
          (see SCALING.md).")
    Term.(
      const serve $ matrix $ traces_arg $ big_arg $ big_nmax_arg)

let slurp path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let explain_cmd =
  let explain trace_file html =
    let html = open_opt html in
    match Events.parse (slurp trace_file) with
    | Error msg -> `Error (false, Printf.sprintf "%s: %s" trace_file msg)
    | Ok (meta, events) ->
        let report = Explain.analyze meta events in
        print_string (Explain.to_text report);
        (match html with
        | Some (path, oc) ->
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
          ~doc:
            "JSONL event trace, from $(b,run --trace-out), $(b,chaos --trace-out) or \
             $(b,serve --trace-out).")
  in
  let html_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "html" ] ~docv:"FILE"
          ~doc:"Also write the report as a self-contained HTML page to $(docv).")
  in
  Cmd.v
    (Cmd.info "explain" ~exits
       ~doc:
         "Render a convergence narrative from an event trace: per-rule move breakdown, \
          Φ milestones, hot nodes, activation-DAG shape, and one causal-cone summary \
          per fault injection.")
    Term.(ret (const explain $ trace_file_arg $ html_arg))

let validate_cmd =
  let validate file =
    let contents = slurp file in
    match Artifact.sniff contents with
    | None ->
        `Error (false, "cannot sniff the artifact kind (no ev/experiments/cells field)")
    | Some k -> (
        let kind_name =
          match k with
          | `Bench -> "bench"
          | `Chaos -> "chaos"
          | `Service -> "service"
          | `Trace -> "trace"
        in
        let result =
          match k with
          | `Trace -> Result.map (fun (_, events) -> List.length events) (Events.parse contents)
          | (`Bench | `Chaos | `Service) as k -> (
              match Metrics.Json.of_string contents with
              | None -> Error "not valid JSON"
              | Some j -> (
                  match k with
                  | `Bench -> Repro_bench.Bench_record.validate j
                  | `Chaos -> Campaign.validate j
                  | `Service -> Service_campaign.validate j))
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
  Cmd.v
    (Cmd.info "validate"
       ~doc:
         "Validate a committed artifact or event trace against its schema; the kind is \
          sniffed from the top-level keys. Exit 1 on the first violation.")
    Term.(ret (const validate $ file_arg))

let list_cmd =
  let list () =
    Format.printf "algorithms: %s@."
      (String.concat ", " (List.map Builders.describe Builders.all));
    Format.printf "graphs:     %s@." (String.concat ", " Generators.all_names);
    Format.printf "schedulers: %s@." (String.concat ", " (List.map fst Scheduler.extended));
    Format.printf "fault plans: %s (grammar: TARGET/PAYLOAD@TIMING)@."
      (String.concat ", " (List.map Fault.Plan.name Fault.Plan.defaults));
    Format.printf "churn traces: %s (grammar: SPEC@TIMING)@."
      (String.concat ", " (List.map Churn.name Churn.defaults))
  in
  Cmd.v
    (Cmd.info "list"
       ~doc:
         "List algorithms (with what each supports: serve = service mode, packed = the \
          struct-of-arrays engine), graph families, schedulers, fault plans and churn \
          traces.")
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
