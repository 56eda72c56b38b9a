module Graph = Repro_graph.Graph
module Tree = Repro_graph.Tree
module View = Repro_runtime.View
module Space = Repro_runtime.Space
module St_layer = Repro_core.St_layer

module type TASK = sig
  val name : string
  val desired : Graph.t -> Tree.t
  val is_legal_tree : Graph.t -> Tree.t -> bool
end

type info = (int * (int * int) list) list
type state = { st : St_layer.t; info : info; plan : int array }

module type INSTANCE = sig
  module P : Repro_runtime.Protocol.S with type state = state

  module Engine : sig
    include module type of Repro_runtime.Engine.Make (P)
  end

  val tree_of : Graph.t -> state array -> Tree.t option
end

(* Only a tree over edges of [g] is a spanning tree the tasks can judge:
   arbitrary registers may point parents at non-neighbours. *)
let tree_of g sts =
  let parent = Array.map (fun s -> s.st.St_layer.parent) sts in
  if Tree.check_parents ~root:0 parent then
    let t = Tree.of_parents ~root:0 parent in
    if Tree.in_graph t g then Some t else None
  else None

module Make (T : TASK) : INSTANCE = struct
  module P = struct
    type nonrec state = state

    let equal_state (a : state) b = a = b

    let pp_state ppf s =
      Format.fprintf ppf "%a info=%d plan=%d" St_layer.pp s.st (List.length s.info)
        (Array.length s.plan)

    let size_bits n s =
      let info_bits =
        List.fold_left
          (fun acc (_, edges) ->
            acc + Space.id_bits n
            + List.fold_left (fun a _ -> a + Space.id_bits n + Space.weight_bits n) 0 edges)
          0 s.info
      in
      St_layer.size_bits n s.st + info_bits + (Array.length s.plan * Space.id_bits n)

    let initial _ v = { st = St_layer.self_root v; info = []; plan = [||] }

    let random_state rng g _v =
      let n = Graph.n g in
      {
        st = St_layer.random rng ~n;
        info =
          (if Random.State.bool rng then []
           else [ (Random.State.int rng n, [ (Random.State.int rng n, 1) ]) ]);
        plan =
          (if Random.State.bool rng then [||]
           else Array.init (Random.State.int rng (n + 1)) (fun _ -> Random.State.int rng n));
      }

    (* My own topology entry. *)
    let own_entry (view : state View.t) =
      ( view.View.id,
        Array.to_list (Array.mapi (fun i u -> (u, view.View.nbr_weights.(i))) view.View.nbr_ids)
      )

    let info_target (view : state View.t) =
      let tbl = Hashtbl.create 32 in
      let add (id, edges) = if not (Hashtbl.mem tbl id) then Hashtbl.add tbl id edges in
      add (own_entry view);
      Array.iteri
        (fun i nb ->
          if nb.st.St_layer.parent = view.View.id then List.iter add nb.info;
          ignore i)
        view.View.nbrs;
      Hashtbl.fold (fun id edges acc -> (id, edges) :: acc) tbl []
      |> List.sort compare

    let plan_target (view : state View.t) =
      let s = view.View.self in
      if s.st.St_layer.parent = -1 then begin
        (* The root: once the collected info covers every node, rebuild
           the graph and compute the desired tree locally. *)
        if List.length s.info = view.View.n then begin
          let edges = Hashtbl.create 64 in
          List.iter
            (fun (u, nbrs) ->
              List.iter
                (fun (v, w) ->
                  if u <> v then Hashtbl.replace edges (min u v, max u v) w)
                nbrs)
            s.info;
          match
            Graph.of_edges view.View.n
              (Hashtbl.fold (fun (u, v) w acc -> (u, v, w) :: acc) edges [])
          with
          | exception Invalid_argument _ -> s.plan
          | g -> (
              match T.desired g with
              | t -> Tree.parents t
              | exception _ -> s.plan)
        end
        else s.plan
      end
      else
        match View.index view s.st.St_layer.parent with
        | i -> view.View.nbrs.(i).plan
        | exception Not_found -> s.plan

    let step (view : state View.t) =
      let s = view.View.self in
      (* 1. Follow the plan (highest priority: the plan is authoritative
         once computed). *)
      let n = view.View.n in
      if
        Array.length s.plan = n
        && Tree.check_parents ~root:0 s.plan
        && s.plan.(view.View.id) <> s.st.St_layer.parent
        && (s.plan.(view.View.id) = -1 || View.is_neighbor view s.plan.(view.View.id))
      then begin
        let p = s.plan.(view.View.id) in
        let dist =
          if p = -1 then 0
          else
            match View.index view p with
            | i -> view.View.nbrs.(i).st.St_layer.dist + 1
            | exception Not_found -> 0
        in
        Some { s with st = { St_layer.parent = p; root = 0; dist = min dist (n - 1) } }
      end
      else
        (* 2. Tree layer (shape preserved; the plan owns the shape). *)
        match St_layer.step view ~get:(fun x -> x.st) ~keep_shape:true with
        | Some st -> Some { s with st }
        | None ->
            (* 3. Convergecast the topology. *)
            let info = info_target view in
            if info <> s.info then Some { s with info }
            else
              (* 4. Broadcast / compute the plan. *)
              let plan = plan_target view in
              if plan <> s.plan then Some { s with plan } else None

    let is_legal g sts =
      match tree_of g sts with None -> false | Some t -> T.is_legal_tree g t

    (* Convergence is by info/plan waves, not potential descent. *)
    let potential _g _sts = None

    let classify =
      Some
        (fun old fresh ->
          if not (St_layer.equal old.st fresh.st) then "tree"
          else if old.info <> fresh.info then "info"
          else "plan")
  end

  module Engine = Repro_runtime.Engine.Make (P)

  let tree_of = tree_of
end

module Mst_instance = Make (struct
  let name = "fullinfo-mst"

  let desired g = Repro_graph.Mst.tree_of g (Repro_graph.Mst.kruskal g) ~root:0

  let is_legal_tree g t = Repro_graph.Mst.is_mst g t

  let _ = name
end)

module Mdst_instance = Make (struct
  let name = "fullinfo-mdst"

  let desired g =
    let t, _, _ = Repro_graph.Min_degree.furer_raghavachari g ~root:0 in
    t

  let is_legal_tree g t = Repro_graph.Min_degree.find_marking g t <> None

  let _ = name
end)
