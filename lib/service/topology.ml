module Graph = Repro_graph.Graph
module Traversal = Repro_graph.Traversal

type migration =
  | Unchanged
  | Grow of int
  | Swap of { removed : int; renamed_from : int }

(* ------------------------------------------------------------------ *)
(* Validation *)

let ( let* ) = Result.bind

let err op fmt =
  Printf.ksprintf (fun msg -> Error (Printf.sprintf "churn op %s: %s" (Churn.op_name op) msg)) fmt

let check_node op g v what =
  if v < 0 || v >= Graph.n g then
    err op "%s %d out of range [0,%d)" what v (Graph.n g)
  else Ok ()

let check_edge_pair op g u v =
  let* () = check_node op g u "endpoint" in
  let* () = check_node op g v "endpoint" in
  if u = v then err op "self-loop on node %d" u else Ok ()

(* Validate [op], build the edited graph once, and check connectivity on
   that very graph when the op can disconnect: [check] and [apply] both
   go through here, so an accepted op costs one O(n+m) edit. *)
let edit g (op : Churn.op) =
  match op with
  | Churn.Add_edge (u, v, w) ->
      let* () = check_edge_pair op g u v in
      if Graph.has_edge g u v then err op "duplicate edge {%d,%d}" u v
      else Ok (Graph.add_edge g u v w, Unchanged)
  | Churn.Del_edge (u, v) ->
      let* () = check_edge_pair op g u v in
      if not (Graph.has_edge g u v) then err op "edge {%d,%d} absent" u v
      else
        let g' = Graph.remove_edge g u v in
        if not (Traversal.is_connected g') then
          err op "deleting edge {%d,%d} disconnects the graph" u v
        else Ok (g', Unchanged)
  | Churn.Reweight (u, v, w) ->
      let* () = check_edge_pair op g u v in
      if not (Graph.has_edge g u v) then err op "edge {%d,%d} absent" u v
      else Ok (Graph.reweight_edge g u v w, Unchanged)
  | Churn.Join anchors ->
      if anchors = [] then err op "a join needs at least one anchor"
      else
        let* () =
          List.fold_left
            (fun acc (a, _) ->
              let* () = acc in
              check_node op g a "anchor")
            (Ok ()) anchors
        in
        let sorted = List.sort compare (List.map fst anchors) in
        let rec dup = function
          | a :: b :: _ when a = b -> Some a
          | _ :: tl -> dup tl
          | [] -> None
        in
        (match dup sorted with
        | Some a -> err op "duplicate anchor %d" a
        | None -> Ok (Graph.add_node g anchors, Grow (Graph.n g)))
  | Churn.Leave v ->
      let* () = check_node op g v "node" in
      if Graph.n g <= 1 then err op "cannot remove the last node"
      else
        let g' = Graph.remove_node g v in
        if not (Traversal.is_connected g') then
          err op "removing node %d disconnects the graph" v
        else Ok (g', Swap { removed = v; renamed_from = Graph.n g - 1 })

let check g op = Result.map ignore (edit g op)

(* ------------------------------------------------------------------ *)
(* Application *)

let apply g op = match edit g op with Ok r -> r | Error msg -> invalid_arg msg

let migrate states mig ~fresh =
  match mig with
  | Unchanged -> Array.copy states
  | Grow id -> Array.append states [| fresh id |]
  | Swap { removed; renamed_from } ->
      let n' = Array.length states - 1 in
      let out = Array.sub states 0 n' in
      if removed < n' then out.(removed) <- states.(renamed_from);
      out

(* The packed twin of [migrate]: same recipe, applied per int lane of a
   register bank, so survivors are copied verbatim as flat words and
   never round-trip through boxed states. [fresh id] supplies the
   joiner's packed register (one adversarial draw, packed by the
   caller). *)
let migrate_bank bank mig ~fresh =
  match mig with
  | Unchanged -> Array.map Array.copy bank
  | Grow id ->
      let packed = fresh id in
      if Array.length packed <> Array.length bank then
        invalid_arg "Topology.migrate_bank: fresh register has the wrong width";
      Array.mapi (fun f lane -> Array.append lane [| packed.(f) |]) bank
  | Swap { removed; renamed_from } ->
      Array.map
        (fun lane ->
          let n' = Array.length lane - 1 in
          let out = Array.sub lane 0 n' in
          if removed < n' then out.(removed) <- lane.(renamed_from);
          out)
        bank

let affected g (op : Churn.op) mig =
  let nodes =
    match (op, mig) with
    | (Churn.Add_edge (u, v, _) | Churn.Del_edge (u, v) | Churn.Reweight (u, v, _)), _ ->
        [ u; v ]
    | Churn.Join anchors, Grow id -> id :: List.map fst anchors
    | Churn.Leave v, Swap { removed; renamed_from } ->
        let rename x = if x = renamed_from then removed else x in
        Graph.neighbors g v |> Array.to_list
        |> List.filter_map (fun (u, _) -> if u = v then None else Some (rename u))
    | (Churn.Join _ | Churn.Leave _), _ ->
        invalid_arg "Topology.affected: op/migration mismatch"
  in
  List.sort_uniq compare nodes
