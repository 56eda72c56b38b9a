(* Comparator over BENCH_repro.json / SERVICE_repro.json artifacts —
   the bench-regression gate. Records are matched by (exp, algo, n,
   occurrence); a comparison FAILS when the new artifact regresses
   steps or rounds by more than [steps_tol] (default 10%). steps/rounds
   are deterministic for a pinned seed, so any drift there is a
   semantic change, not noise. wall_ns and qps are single wall-clock
   samples: they are printed for the reader but never gate, because
   under a parallel build they swing by several hundred percent (timing
   is gated by `bench/perf compare` on repeated samples — see
   PERFORMANCE.md). Improvements never fail.

   Service artifacts load through the same record shape: cells are
   keyed by (trace, algo, n0), carry no wall_ns (0), and the big-tier
   cells carry qps. *)

module Json = Repro_runtime.Metrics.Json

type record = {
  exp : string;
  algo : string;
  n : int;
  rounds : int;
  steps : int;
  max_bits : int;
  wall_ns : int;
  qps : int option;
}

type key = { kexp : string; kalgo : string; kn : int; occurrence : int }

let pp_key ppf k =
  Format.fprintf ppf "%s/%s/n=%d" k.kexp k.kalgo k.kn;
  if k.occurrence > 0 then Format.fprintf ppf "#%d" k.occurrence

(* ------------------------------------------------------------------ *)
(* Loading *)

let record_of_json j =
  let str k = match Json.member k j with Some (Json.Str s) -> Some s | _ -> None in
  let int k = match Json.member k j with Some (Json.Int i) -> Some i | _ -> None in
  match (str "exp", str "algo", int "n", int "rounds", int "steps", int "max_bits",
         int "wall_ns")
  with
  | Some exp, Some algo, Some n, Some rounds, Some steps, Some max_bits, Some wall_ns
    -> Some { exp; algo; n; rounds; steps; max_bits; wall_ns; qps = int "qps" }
  | _ -> None

(* A SERVICE_repro.json cell mapped onto the record shape: the churn
   trace plays the experiment name, n0 the size; there is no per-cell
   wall time (0 = never breaches), and big-tier cells carry qps. *)
let record_of_service_cell j =
  let str k = match Json.member k j with Some (Json.Str s) -> Some s | _ -> None in
  let int k = match Json.member k j with Some (Json.Int i) -> Some i | _ -> None in
  match (str "trace", str "algo", int "n0", int "rounds", int "steps", int "max_bits")
  with
  | Some exp, Some algo, Some n, Some rounds, Some steps, Some max_bits ->
      Some { exp; algo; n; rounds; steps; max_bits; wall_ns = 0; qps = int "qps" }
  | _ -> None

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | contents -> (
      match Json.of_string contents with
      | None -> Error (path ^ ": not valid JSON")
      | Some j -> (
          match (Json.member "experiments" j, Json.member "cells" j) with
          | Some (Json.List items), _ ->
              let records = List.filter_map record_of_json items in
              if List.length records <> List.length items then
                Error (path ^ ": malformed experiment record")
              else Ok records
          | None, Some (Json.List items) ->
              let records = List.filter_map record_of_service_cell items in
              if List.length records <> List.length items then
                Error (path ^ ": malformed service cell")
              else Ok records
          | _ -> Error (path ^ ": missing \"experiments\" or \"cells\" list")))

(* Records keyed by (exp, algo, n) with a running occurrence index, so
   repeated configurations (E2 runs gnp-16 twice) stay distinguishable
   and positionally matched. *)
let keyed records =
  let seen = Hashtbl.create 16 in
  List.map
    (fun r ->
      let base = (r.exp, r.algo, r.n) in
      let occurrence = try Hashtbl.find seen base with Not_found -> 0 in
      Hashtbl.replace seen base (occurrence + 1);
      ({ kexp = r.exp; kalgo = r.algo; kn = r.n; occurrence }, r))
    records

(* ------------------------------------------------------------------ *)
(* Identity comparison (bench-diff --require-identical): two artifacts
   produced from the same seeds at different [--jobs] must agree in
   every field except wall time. Schema-agnostic — works on
   BENCH_repro.json, CHAOS_repro.json and SERVICE_repro.json alike:
   [wall_ns] and the wall-derived [qps] fields are stripped
   recursively, then the JSON trees must be equal, and the first
   divergence is reported by path. *)

let load_json path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | contents -> (
      match Json.of_string contents with
      | None -> Error (path ^ ": not valid JSON")
      | Some j -> Ok j)

let rec strip_wall = function
  | Json.Obj fields ->
      Json.Obj
        (List.filter_map
           (fun (k, v) ->
             if k = "wall_ns" || k = "qps" then None else Some (k, strip_wall v))
           fields)
  | Json.List items -> Json.List (List.map strip_wall items)
  | j -> j

let first_divergence a b =
  let rec go path a b =
    match (a, b) with
    | Json.Obj fa, Json.Obj fb ->
        if List.map fst fa <> List.map fst fb then
          Some
            (Printf.sprintf "%s: field sets differ ({%s} vs {%s})" path
               (String.concat "," (List.map fst fa))
               (String.concat "," (List.map fst fb)))
        else
          List.find_map
            (fun ((k, va), (_, vb)) -> go (path ^ "." ^ k) va vb)
            (List.combine fa fb)
    | Json.List la, Json.List lb ->
        if List.length la <> List.length lb then
          Some
            (Printf.sprintf "%s: list lengths differ (%d vs %d)" path (List.length la)
               (List.length lb))
        else
          List.find_map
            (fun (i, (va, vb)) -> go (Printf.sprintf "%s[%d]" path i) va vb)
            (List.mapi (fun i p -> (i, p)) (List.combine la lb))
    | _ -> if a = b then None else
          Some
            (Printf.sprintf "%s: %s <> %s" path (Json.to_string a) (Json.to_string b))
  in
  go "$" (strip_wall a) (strip_wall b)

(* ------------------------------------------------------------------ *)
(* Comparison *)

type verdict = Ok_same | Ok_improved | Ok_within_tolerance | Regressed of string list

type comparison = { ckey : key; old_r : record; new_r : record; verdict : verdict }

type report = {
  comparisons : comparison list;
  missing : key list;  (** in the old artifact only — not compared *)
  extra : key list;  (** in the new artifact only — not compared *)
  failures : int;
}

let ratio old_v new_v =
  if old_v = 0 then if new_v = 0 then 1.0 else infinity
  else float_of_int new_v /. float_of_int old_v

let compare_one ~steps_tol ckey old_r new_r =
  let breaches = ref [] in
  let check name old_v new_v tol =
    let r = ratio old_v new_v in
    if r > 1.0 +. tol then
      breaches :=
        Printf.sprintf "%s %d -> %d (%+.1f%% > %.0f%% tolerance)" name old_v new_v
          ((r -. 1.0) *. 100.)
          (tol *. 100.)
        :: !breaches
  in
  check "steps" old_r.steps new_r.steps steps_tol;
  check "rounds" old_r.rounds new_r.rounds steps_tol;
  let verdict =
    match List.rev !breaches with
    | _ :: _ as b -> Regressed b
    | [] ->
        if (old_r.steps, old_r.rounds) <> (new_r.steps, new_r.rounds) then
          Ok_within_tolerance
        else if new_r.wall_ns < old_r.wall_ns then Ok_improved
        else Ok_same
  in
  { ckey; old_r; new_r; verdict }

let diff ?(steps_tol = 0.10) ~old_records ~new_records () =
  let old_k = keyed old_records and new_k = keyed new_records in
  let find k l = List.find_opt (fun (k', _) -> k' = k) l in
  let comparisons =
    List.filter_map
      (fun (k, o) ->
        match find k new_k with
        | Some (_, n) -> Some (compare_one ~steps_tol k o n)
        | None -> None)
      old_k
  in
  let missing =
    List.filter_map (fun (k, _) -> if find k new_k = None then Some k else None) old_k
  in
  let extra =
    List.filter_map (fun (k, _) -> if find k old_k = None then Some k else None) new_k
  in
  let failures =
    List.length
      (List.filter (fun c -> match c.verdict with Regressed _ -> true | _ -> false)
         comparisons)
  in
  { comparisons; missing; extra; failures }

(* ------------------------------------------------------------------ *)
(* Rendering *)

let pp_report ppf r =
  Format.fprintf ppf "%-22s %20s %16s %22s  %s@." "key" "steps (old->new)"
    "rounds" "wall ms (old->new)" "verdict";
  List.iter
    (fun c ->
      let verdict =
        match c.verdict with
        | Ok_same -> "ok"
        | Ok_improved ->
            Printf.sprintf "ok (wall %.2fx faster)"
              (float_of_int c.old_r.wall_ns /. float_of_int (max 1 c.new_r.wall_ns))
        | Ok_within_tolerance -> "ok (drifted within tolerance)"
        | Regressed breaches -> "REGRESSED: " ^ String.concat "; " breaches
      in
      Format.fprintf ppf "%-22s %9d -> %-9d %7d -> %-7d %10.2f -> %-10.2f %s@."
        (Format.asprintf "%a" pp_key c.ckey)
        c.old_r.steps c.new_r.steps c.old_r.rounds c.new_r.rounds
        (float_of_int c.old_r.wall_ns /. 1e6)
        (float_of_int c.new_r.wall_ns /. 1e6)
        verdict;
      if c.old_r.max_bits <> c.new_r.max_bits then
        Format.fprintf ppf "%-22s   warning: max_bits %d -> %d@." ""
          c.old_r.max_bits c.new_r.max_bits;
      match (c.old_r.qps, c.new_r.qps) with
      | Some o, Some nw -> Format.fprintf ppf "%-22s   qps %d -> %d@." "" o nw
      | _ -> ())
    r.comparisons;
  if r.missing <> [] then
    Format.fprintf ppf "not in new artifact (skipped): %a@."
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") pp_key)
      r.missing;
  if r.extra <> [] then
    Format.fprintf ppf "only in new artifact (no baseline): %a@."
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") pp_key)
      r.extra;
  Format.fprintf ppf "%d compared, %d regressed@." (List.length r.comparisons) r.failures
