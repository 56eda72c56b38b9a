type t = {
  mutable moves : int;
  mutable guard_evals : int;
  mutable refreshes : int;
  mutable touches : int;
  mutable flushes : int;
  mutable churn : int;
  rules : (string, int ref) Hashtbl.t;
}

let create () =
  {
    moves = 0;
    guard_evals = 0;
    refreshes = 0;
    touches = 0;
    flushes = 0;
    churn = 0;
    rules = Hashtbl.create 16;
  }

let on_move ?rule t =
  t.moves <- t.moves + 1;
  match rule with
  | None -> ()
  | Some r -> (
      match Hashtbl.find_opt t.rules r with
      | Some c -> incr c
      | None -> Hashtbl.add t.rules r (ref 1))

let on_guard t = t.guard_evals <- t.guard_evals + 1
let on_refresh t = t.refreshes <- t.refreshes + 1
let on_touch t = t.touches <- t.touches + 1
let on_flush t = t.flushes <- t.flushes + 1
let on_churn t = t.churn <- t.churn + 1

let rule_counts t =
  Hashtbl.fold (fun r c acc -> (r, !c) :: acc) t.rules []
  |> List.sort (fun (ra, ca) (rb, cb) ->
         match compare cb ca with 0 -> compare ra rb | c -> c)

let hit_rate t =
  let denom = t.moves + t.guard_evals in
  if denom = 0 then 0. else float_of_int t.moves /. float_of_int denom

let pp ppf t =
  Format.fprintf ppf
    "@[<h>moves=%d guard_evals=%d hit=%.2f refreshes=%d touches=%d flushes=%d churn=%d%a@]"
    t.moves t.guard_evals (hit_rate t) t.refreshes t.touches t.flushes t.churn
    (fun ppf rules ->
      match rules with
      | [] -> ()
      | rules ->
          Format.pp_print_string ppf " rules:";
          List.iter (fun (r, c) -> Format.fprintf ppf " %s=%d" r c) rules)
    (rule_counts t)
