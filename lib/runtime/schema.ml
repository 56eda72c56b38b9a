module Json = Metrics.Json

let ( let* ) = Result.bind

let field obj k =
  match Json.member k obj with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %S" k)

let as_int k = function
  | Json.Int i -> Ok i
  | _ -> Error (Printf.sprintf "field %S is not an int" k)

let as_str k = function
  | Json.Str s -> Ok s
  | _ -> Error (Printf.sprintf "field %S is not a string" k)

let as_bool k = function
  | Json.Bool b -> Ok b
  | _ -> Error (Printf.sprintf "field %S is not a bool" k)

let as_list k = function
  | Json.List l -> Ok l
  | _ -> Error (Printf.sprintf "field %S is not a list" k)

let int_field obj k =
  let* v = field obj k in
  as_int k v

let str_field obj k =
  let* v = field obj k in
  as_str k v

let bool_field obj k =
  let* v = field obj k in
  as_bool k v

let opt_int_field obj k =
  match Json.member k obj with
  | None | Some Json.Null -> Ok None
  | Some (Json.Int i) -> Ok (Some i)
  | Some _ -> Error (Printf.sprintf "field %S is not an int or null" k)

let opt_str_field obj k =
  match Json.member k obj with
  | None | Some Json.Null -> Ok None
  | Some (Json.Str s) -> Ok (Some s)
  | Some _ -> Error (Printf.sprintf "field %S is not a string or null" k)

let ints_field obj k =
  let* v = field obj k in
  let* l = as_list k v in
  List.fold_left
    (fun acc x ->
      let* () = acc in
      match x with
      | Json.Int _ -> Ok ()
      | _ -> Error (Printf.sprintf "field %S contains a non-int" k))
    (Ok ()) l

let require_int obj k =
  let* (_ : int) = int_field obj k in
  Ok ()

let require_str obj k =
  let* (_ : string) = str_field obj k in
  Ok ()

let require_bool obj k =
  let* (_ : bool) = bool_field obj k in
  Ok ()

let all checks = List.fold_left (fun acc c -> Result.bind acc (fun () -> c)) (Ok ()) checks

let indexed what l check =
  let rec go i = function
    | [] -> Ok i
    | x :: tl -> (
        match check x with
        | Ok () -> go (i + 1) tl
        | Error e -> Error (Printf.sprintf "%s %d: %s" what i e))
  in
  go 0 l

(* ------------------------------------------------------------------ *)

(* Bench records carry an optional "tier": "std" for the pinned
   repro experiments, "big" for the scaling tier (see SCALING.md).
   Absent means "std" — artifacts from before the tier existed still
   validate. *)
let tiers = [ "std"; "big" ]

let validate_bench j =
  let* () = require_int j "seed" in
  let* exps = field j "experiments" in
  let* exps = as_list "experiments" exps in
  indexed "experiment" exps (fun e ->
      let* () =
        all
          [
            require_str e "exp";
            require_str e "algo";
            require_int e "n";
            require_int e "rounds";
            require_int e "steps";
            require_int e "max_bits";
            require_int e "wall_ns";
          ]
      in
      let* tier = opt_str_field e "tier" in
      match tier with
      | None -> Ok ()
      | Some t ->
          if List.mem t tiers then Ok ()
          else Error (Printf.sprintf "unknown tier %S" t))

let verdicts = [ "converged"; "livelock"; "stalled"; "exhausted" ]

let validate_injection inj =
  all
    [
      require_int inj "round";
      Result.map (fun _ -> ()) (ints_field inj "nodes");
      Result.map (fun _ -> ()) (opt_int_field inj "gap");
      Result.map (fun _ -> ()) (opt_int_field inj "radius");
      require_int inj "touched";
    ]

let validate_cell c =
  let* () =
    all
      [
        require_str c "algo";
        require_str c "plan";
        require_str c "sched";
        require_int c "seed";
        require_int c "n";
        require_int c "m";
        require_int c "base_rounds";
        require_int c "rounds";
        require_int c "steps";
        require_bool c "silent";
        require_bool c "legal";
        require_bool c "recovered";
        require_int c "max_bits";
      ]
  in
  let* v = str_field c "verdict" in
  let* () =
    if List.mem v verdicts then Ok ()
    else Error (Printf.sprintf "unknown verdict %S" v)
  in
  let* injs = field c "injections" in
  let* injs = as_list "injections" injs in
  Result.map (fun _ -> ()) (indexed "injection" injs validate_injection)

let validate_chaos j =
  let* meta = field j "meta" in
  let* () =
    all
      [
        require_str meta "experiment";
        require_str meta "graph";
        require_int meta "n";
        require_int meta "seeds";
        require_int meta "seed_base";
        require_int meta "max_rounds";
        require_int meta "max_injections";
      ]
  in
  let* summary = field j "summary" in
  let* () =
    all
      [ require_int summary "cells"; require_int summary "recovered"; require_int summary "failed" ]
  in
  let* cells = field j "cells" in
  let* cells = as_list "cells" cells in
  indexed "cell" cells validate_cell

(* ------------------------------------------------------------------ *)

(* Service-mode artifact (SERVICE_repro.json): one cell per
   builder x churn trace x daemon x seed, each carrying the per-event
   recovery records and degradation counters. *)

let validate_service_event ev =
  all
    [
      require_str ev "op";
      require_int ev "round";
      Result.map (fun _ -> ()) (opt_int_field ev "gap");
      require_int ev "steps";
      require_int ev "queries";
      require_int ev "stale";
      require_int ev "violations";
      require_int ev "retries";
      require_int ev "escalations";
      require_int ev "restarts";
      require_int ev "crashes";
      require_bool ev "recovered";
    ]

let validate_service_cell c =
  let* () =
    all
      [
        require_str c "algo";
        require_str c "trace";
        require_str c "sched";
        require_str c "fallback";
        require_int c "seed";
        require_int c "n0";
        require_int c "m0";
        require_int c "n_final";
        require_int c "m_final";
        require_int c "base_rounds";
        require_bool c "recovered";
        require_int c "max_bits";
      ]
  in
  (* Serve cells carry the bench "tier" ("std" churn matrix / "big"
     serve bench) and, on the big tier, the measured snapshot-read
     throughput — both optional so pre-tier artifacts still validate. *)
  let* tier = opt_str_field c "tier" in
  let* () =
    match tier with
    | None -> Ok ()
    | Some t ->
        if List.mem t tiers then Ok ()
        else Error (Printf.sprintf "unknown tier %S" t)
  in
  let* (_ : int option) = opt_int_field c "qps" in
  let* v = str_field c "verdict" in
  let* () =
    if List.mem v verdicts then Ok ()
    else Error (Printf.sprintf "unknown verdict %S" v)
  in
  let* totals = field c "totals" in
  let* () =
    all
      [
        require_int totals "queries";
        require_int totals "stale";
        require_int totals "violations";
        require_int totals "retries";
        require_int totals "escalations";
        require_int totals "restarts";
        require_int totals "crashes";
      ]
  in
  let* evs = field c "events" in
  let* evs = as_list "events" evs in
  Result.map (fun _ -> ()) (indexed "event" evs validate_service_event)

let validate_service j =
  let* meta = field j "meta" in
  let* () =
    all
      [
        require_str meta "experiment";
        require_str meta "graph";
        require_int meta "n";
        require_int meta "seeds";
        require_int meta "seed_base";
        require_int meta "retry_budget";
        require_int meta "max_retries";
        require_int meta "queries_per_round";
      ]
  in
  let* traces = field meta "traces" in
  let* traces = as_list "traces" traces in
  let* () =
    List.fold_left
      (fun acc t ->
        let* () = acc in
        match t with
        | Json.Str _ -> Ok ()
        | _ -> Error "field \"traces\" contains a non-string")
      (Ok ()) traces
  in
  let* summary = field j "summary" in
  let* () =
    all
      [
        require_int summary "cells";
        require_int summary "recovered";
        require_int summary "failed";
        require_int summary "events";
        require_int summary "escalations";
        require_int summary "restarts";
      ]
  in
  let* cells = field j "cells" in
  let* cells = as_list "cells" cells in
  indexed "cell" cells validate_service_cell

(* ------------------------------------------------------------------ *)

module ISet = Set.Make (Int)

(* [Explain.parse] checks each line's grammar; then the event lines are
   re-walked in file order: ids strictly increase whatever the kind,
   and every cause names an earlier fault, churn or move. *)
let validate_trace contents =
  let* (_ : Explain.trace) = Explain.parse contents in
  let event acc line =
    let* last, sources, count = acc in
    match Json.of_string (String.trim line) with
    | Some j when Json.member "ev" j <> Some (Json.Str "meta") ->
        let* id = int_field j "id" in
        let causes = match Json.member "causes" j with Some (Json.List l) -> l | _ -> [] in
        if id <= last then Error (Printf.sprintf "event id %d not increasing" id)
        else if List.exists (function Json.Int c -> not (ISet.mem c sources) | _ -> true) causes
        then
          Error (Printf.sprintf "event %d has a cause that is no earlier fault, churn or move" id)
        else
          let round = Json.member "ev" j = Some (Json.Str "round") in
          Ok (id, (if round then sources else ISet.add id sources), count + 1)
    | _ -> acc
  in
  let* _, _, count =
    List.fold_left event (Ok (-1, ISet.empty, 0)) (String.split_on_char '\n' contents)
  in
  Ok count

let sniff contents =
  let first_line =
    match String.index_opt contents '\n' with
    | Some i -> String.sub contents 0 i
    | None -> contents
  in
  let categorize j =
    if Json.member "ev" j <> None then Some `Trace
    else if Json.member "experiments" j <> None then Some `Bench
    else if Json.member "cells" j <> None then
      (* Chaos and service artifacts both lead with cells; the service
         meta header is the one that names its churn traces. *)
      match Json.member "meta" j with
      | Some meta when Json.member "traces" meta <> None -> Some `Service
      | _ -> Some `Chaos
    else None
  in
  match Json.of_string (String.trim first_line) with
  | Some j -> categorize j
  | None -> Option.bind (Json.of_string (String.trim contents)) categorize
