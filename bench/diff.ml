(* Comparator over BENCH_repro.json / SERVICE_repro.json artifacts —
   the bench-regression gate. Records are matched by (exp, algo, n,
   occurrence); a comparison FAILS when steps, rounds or max_bits
   differ at all. Those counts are deterministic for a pinned seed, so
   any difference is a semantic change, never noise; the artifacts carry
   no wall-clock time (timing is bench/perf's job, on repeated samples —
   see PERFORMANCE.md).

   Service artifacts load through the same record shape: cells are
   keyed by (trace, algo, n0). *)

open Repro_runtime
module Json = Metrics.Json

type record = {
  exp : string;
  algo : string;
  n : int;
  rounds : int;
  steps : int;
  max_bits : int;
}

type key = { kexp : string; kalgo : string; kn : int; occurrence : int }

let pp_key ppf k =
  Format.fprintf ppf "%s/%s/n=%d" k.kexp k.kalgo k.kn;
  if k.occurrence > 0 then Format.fprintf ppf "#%d" k.occurrence

(* ------------------------------------------------------------------ *)
(* Loading *)

(* [Artifact.read] of the record list checks every record against its
   declaration, so a malformed record fails with the validator's
   message, and the field reads below cannot fail. *)
let field f j = Result.get_ok (Artifact.read f j)

let bench_record j =
  let open Bench_record.Fields in
  let get f = field f j in
  { exp = get exp; algo = get algo; n = get n; rounds = get rounds; steps = get steps;
    max_bits = get max_bits }

(* A SERVICE_repro.json cell mapped onto the record shape: the churn
   trace plays the experiment name, n0 the size. *)
let service_record j =
  let open Repro_campaign.Service_campaign.Fields in
  let get f = field f j in
  { exp = get trace; algo = get algo; n = get n0; rounds = get rounds; steps = get steps;
    max_bits = get max_bits }

let load path =
  let records list record j = Result.map (List.map record) (Artifact.read list j) in
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | contents ->
      Result.map_error
        (fun msg -> path ^ ": " ^ msg)
        (match (Json.of_string contents, Artifact.sniff contents) with
        | None, _ -> Error "not valid JSON"
        | Some j, Some `Bench -> records Bench_record.experiments bench_record j
        | Some j, Some `Service ->
            records Repro_campaign.Service_campaign.cells service_record j
        | Some _, _ -> Error "not a BENCH or SERVICE artifact")

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
   produced from the same seeds at different [--jobs] must be equal.
   Schema-agnostic — works on BENCH_repro.json, CHAOS_repro.json and
   SERVICE_repro.json alike: the JSON trees must be equal, and the first
   divergence is reported by path. *)

let load_json path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | contents -> (
      match Json.of_string contents with
      | None -> Error (path ^ ": not valid JSON")
      | Some j -> Ok j)

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
  go "$" a b

(* ------------------------------------------------------------------ *)
(* Comparison *)

(* [differences] names every count that moved, e.g. ["steps 10 -> 11"];
   empty when the two records agree. *)
type comparison = { ckey : key; old_r : record; new_r : record; differences : string list }

type report = {
  comparisons : comparison list;
  missing : key list;  (** in the old artifact only — not compared *)
  extra : key list;  (** in the new artifact only — not compared *)
  failures : int;
}

let compare_one ckey old_r new_r =
  let differences =
    List.filter_map
      (fun (name, get) ->
        let o = get old_r and n = get new_r in
        if o = n then None else Some (Printf.sprintf "%s %d -> %d" name o n))
      [
        ("steps", fun r -> r.steps);
        ("rounds", fun r -> r.rounds);
        ("max_bits", fun r -> r.max_bits);
      ]
  in
  { ckey; old_r; new_r; differences }

let diff ~old_records ~new_records =
  let old_k = keyed old_records and new_k = keyed new_records in
  let find k l = List.find_opt (fun (k', _) -> k' = k) l in
  let comparisons =
    List.filter_map
      (fun (k, o) -> Option.map (fun (_, n) -> compare_one k o n) (find k new_k))
      old_k
  in
  let missing =
    List.filter_map (fun (k, _) -> if find k new_k = None then Some k else None) old_k
  in
  let extra =
    List.filter_map (fun (k, _) -> if find k old_k = None then Some k else None) new_k
  in
  let failures = List.length (List.filter (fun c -> c.differences <> []) comparisons) in
  { comparisons; missing; extra; failures }

(* ------------------------------------------------------------------ *)
(* Rendering *)

let pp_report ppf r =
  Format.fprintf ppf "%-22s %-22s %-18s %-18s %s@." "key" "steps (old -> new)" "rounds"
    "max_bits" "verdict";
  List.iter
    (fun c ->
      Format.fprintf ppf "%-22s %9d -> %-9d %7d -> %-7d %7d -> %-7d %s@."
        (Format.asprintf "%a" pp_key c.ckey)
        c.old_r.steps c.new_r.steps c.old_r.rounds c.new_r.rounds c.old_r.max_bits
        c.new_r.max_bits
        (match c.differences with
        | [] -> "ok"
        | d -> "DIFFERS: " ^ String.concat "; " d))
    r.comparisons;
  if r.missing <> [] then
    Format.fprintf ppf "not in new artifact (skipped): %a@."
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") pp_key)
      r.missing;
  if r.extra <> [] then
    Format.fprintf ppf "only in new artifact (no baseline): %a@."
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") pp_key)
      r.extra;
  Format.fprintf ppf "%d compared, %d differ@." (List.length r.comparisons) r.failures
