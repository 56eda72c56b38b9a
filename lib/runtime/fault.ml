module Graph = Repro_graph.Graph
module Traversal = Repro_graph.Traversal

let validate_nodes ~n nodes =
  let nodes = List.sort_uniq compare nodes in
  List.iter
    (fun v ->
      if v < 0 || v >= n then
        invalid_arg (Printf.sprintf "Fault.corrupt_nodes: node id %d out of range [0,%d)" v n))
    nodes;
  nodes

let corrupt_nodes rng ~random_state g states nodes =
  let nodes = validate_nodes ~n:(Array.length states) nodes in
  let states = Array.copy states in
  List.iter (fun v -> states.(v) <- random_state rng g v) nodes;
  states

(* Distinct uniform node ids: shuffle indices, take the first k. *)
let pick_nodes rng ~n ~k =
  let idx = Array.init n (fun i -> i) in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let tmp = idx.(i) in
    idx.(i) <- idx.(j);
    idx.(j) <- tmp
  done;
  Array.to_list (Array.sub idx 0 k) |> List.sort compare

let corrupt rng ~random_state g states ~k =
  let n = Array.length states in
  if k <= 0 then Array.copy states
  else corrupt_nodes rng ~random_state g states (pick_nodes rng ~n ~k:(min k n))

(* ------------------------------------------------------------------ *)
(* Single bit-flip in the encoded register.

   Registers are abstract per protocol, so the flip works on the runtime
   representation: walk the value, collect every immediate (int-like)
   field reachable through ordinary scannable blocks, pick one uniformly,
   and flip one of its low 16 bits, copying only the blocks along the
   path. Strings, floats, closures and other exotic blocks are left
   alone. This covers every register type in the repository (records of
   ints, options, arrays, nested records) and models the classic
   memory-fault corruption: the result is one bit away from the original
   encoding, not a fresh uniform draw. *)

let bitflip rng (s : 'state) : 'state =
  let scannable o =
    let tag = Obj.tag o in
    tag < Obj.no_scan_tag && tag <> Obj.closure_tag && tag <> Obj.object_tag
    && tag <> Obj.lazy_tag && tag <> Obj.forward_tag && tag <> Obj.infix_tag
  in
  let rec paths acc path o =
    if Obj.is_int o then List.rev path :: acc
    else if scannable o then begin
      let acc = ref acc in
      for i = 0 to Obj.size o - 1 do
        acc := paths !acc (i :: path) (Obj.field o i)
      done;
      !acc
    end
    else acc
  in
  match paths [] [] (Obj.repr s) with
  | [] -> s
  | ps ->
      let path = List.nth ps (Random.State.int rng (List.length ps)) in
      let bit = Random.State.int rng 16 in
      let rec flip o = function
        | [] -> Obj.repr ((Obj.obj o : int) lxor (1 lsl bit))
        | i :: rest ->
            let o' = Obj.dup o in
            Obj.set_field o' i (flip (Obj.field o i) rest);
            o'
      in
      Obj.obj (flip (Obj.repr s) path)

(* ------------------------------------------------------------------ *)
(* Structured fault plans. *)

module Plan = struct
  type target =
    | Random_nodes of int
    | Nodes of int list
    | Root
    | Deepest
    | Subtree

  type payload = Randomize | Bitflip | Stale of int
  type timing = At_silence | Periodic of int | Poisson of float

  type t = { target : target; payload : payload; timing : timing }

  let make ?(payload = Randomize) ?(timing = At_silence) target =
    { target; payload; timing }

  let target_name = function
    | Random_nodes k -> Printf.sprintf "random:%d" k
    | Nodes l -> "nodes:" ^ String.concat "+" (List.map string_of_int l)
    | Root -> "root"
    | Deepest -> "deepest"
    | Subtree -> "subtree"

  let payload_name = function
    | Randomize -> "randomize"
    | Bitflip -> "bitflip"
    | Stale d -> Printf.sprintf "stale:%d" d

  let timing_name = function
    | At_silence -> "silence"
    | Periodic r -> Printf.sprintf "periodic:%d" r
    | Poisson rate -> Printf.sprintf "poisson:%g" rate

  let name p =
    Printf.sprintf "%s/%s@%s" (target_name p.target) (payload_name p.payload)
      (timing_name p.timing)

  let pp ppf p = Format.pp_print_string ppf (name p)

  let split_once ch s =
    match String.index_opt s ch with
    | None -> (s, None)
    | Some i ->
        (String.sub s 0 i, Some (String.sub s (i + 1) (String.length s - i - 1)))

  let parse_target s =
    let head, arg = split_once ':' s in
    match (head, arg) with
    | "random", Some k -> (
        match int_of_string_opt k with
        | Some k when k > 0 -> Ok (Random_nodes k)
        | _ -> Error (Printf.sprintf "bad random target %S (want random:K, K > 0)" s))
    | "nodes", Some l -> (
        let ids = String.split_on_char '+' l |> List.map int_of_string_opt in
        if List.for_all Option.is_some ids && ids <> [] then
          Ok (Nodes (List.filter_map Fun.id ids))
        else Error (Printf.sprintf "bad nodes target %S (want nodes:1+2+3)" s))
    | "root", None -> Ok Root
    | "deepest", None -> Ok Deepest
    | "subtree", None -> Ok Subtree
    | _ -> Error (Printf.sprintf "unknown fault target %S" s)

  let parse_payload s =
    let head, arg = split_once ':' s in
    match (head, arg) with
    | "randomize", None -> Ok Randomize
    | "bitflip", None -> Ok Bitflip
    | "stale", Some d -> (
        match int_of_string_opt d with
        | Some d when d > 0 -> Ok (Stale d)
        | _ -> Error (Printf.sprintf "bad stale payload %S (want stale:D, D > 0)" s))
    | _ -> Error (Printf.sprintf "unknown fault payload %S" s)

  let parse_timing s =
    let head, arg = split_once ':' s in
    match (head, arg) with
    | "silence", None -> Ok At_silence
    | "periodic", Some r -> (
        match int_of_string_opt r with
        | Some r when r > 0 -> Ok (Periodic r)
        | _ -> Error (Printf.sprintf "bad periodic timing %S (want periodic:R, R > 0)" s))
    | "poisson", Some rate -> (
        match float_of_string_opt rate with
        | Some rate when rate > 0.0 && rate <= 1.0 -> Ok (Poisson rate)
        | _ ->
            Error
              (Printf.sprintf "bad poisson timing %S (want poisson:RATE in (0,1])" s))
    | _ -> Error (Printf.sprintf "unknown fault timing %S" s)

  let ( let* ) r f = Result.bind r f

  let of_string s =
    let body, timing = split_once '@' s in
    let target, payload = split_once '/' body in
    let* target = parse_target (String.trim target) in
    let* payload =
      match payload with None -> Ok Randomize | Some p -> parse_payload (String.trim p)
    in
    let* timing =
      match timing with None -> Ok At_silence | Some t -> parse_timing (String.trim t)
    in
    Ok { target; payload; timing }

  let parse_list s =
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | p :: rest -> (
          match of_string p with Ok p -> go (p :: acc) rest | Error _ as e -> e)
    in
    go []
      (String.split_on_char ',' s |> List.map String.trim
      |> List.filter (fun s -> s <> ""))

  let defaults =
    [
      make (Random_nodes 3);
      make Root ~payload:Bitflip;
      make Deepest ~payload:(Stale 2);
      make Subtree;
      make (Random_nodes 2) ~timing:(Periodic 5);
    ]
end

let select rng g (target : Plan.target) =
  let n = Graph.n g in
  match target with
  | Plan.Random_nodes k -> pick_nodes rng ~n ~k:(max 0 (min k n))
  | Plan.Nodes l -> validate_nodes ~n l
  | Plan.Root -> [ 0 ]
  | Plan.Deepest ->
      let d = Traversal.bfs_distances g ~src:0 in
      let best = ref 0 in
      for v = 1 to n - 1 do
        if d.(v) > d.(!best) then best := v
      done;
      [ !best ]
  | Plan.Subtree ->
      let parent = Traversal.bfs_tree g ~src:0 in
      let v = Random.State.int rng n in
      let descends u =
        let rec walk x steps = x = v || (steps < n && x >= 0 && walk parent.(x) (steps + 1)) in
        walk u 0
      in
      List.filter descends (List.init n Fun.id)

let apply_plan rng ~random_state ?stale g states (plan : Plan.t) =
  let nodes = select rng g plan.Plan.target in
  let states' = Array.copy states in
  let payload_of v =
    match plan.Plan.payload with
    | Plan.Randomize -> random_state rng g v
    | Plan.Bitflip -> bitflip rng states.(v)
    | Plan.Stale d -> (
        match stale with
        | Some history -> (
            match history d with Some old -> old.(v) | None -> random_state rng g v)
        | None -> random_state rng g v)
  in
  List.iter (fun v -> states'.(v) <- payload_of v) nodes;
  (nodes, states')
