module Graph = Repro_graph.Graph
module Traversal = Repro_graph.Traversal
module View = Repro_runtime.View
module Space = Repro_runtime.Space

type state = { parent : int; dist : int }

(* Lanes: 0=parent, 1=dist (see SCALING.md). *)
let pack (s : state) = [| s.parent; s.dist |]

(* The per-node certificate of adhoc_bfs.mli on the lanes: [dist(0) =
   0]; elsewhere a parent that is a graph neighbour one hop closer; and
   no neighbour more than one hop closer. *)
let certify g bank v =
  let par = bank.(0) and dis = bank.(1) in
  let row = Graph.csr_row g and col = Graph.csr_col g in
  let d = dis.(v) in
  let ok = ref (v <> 0 || d = 0) and tight = ref (v = 0) in
  for i = row.(v) to row.(v + 1) - 1 do
    let u = col.(i) in
    if dis.(u) < d - 1 then ok := false
    else if u = par.(v) && dis.(u) + 1 = d then tight := true
  done;
  !ok && !tight

module P = struct
  type nonrec state = state

  let equal_state (a : state) b = a = b
  let pp_state ppf s = Format.fprintf ppf "(p=%d,d=%d)" s.parent s.dist
  let size_bits n _ = Space.id_bits n + Space.dist_bits n
  let initial _ v = if v = 0 then { parent = -1; dist = 0 } else { parent = -1; dist = 1 }

  let random_state rng g _ =
    let n = Graph.n g in
    { parent = Random.State.int rng (n + 1) - 1; dist = Random.State.int rng (n + 1) }

  let target (view : state View.t) =
    if view.View.id = 0 then { parent = -1; dist = 0 }
    else begin
      let best = ref None in
      for i = 0 to view.View.degree - 1 do
        let u = view.View.nbrs.(i) in
        match !best with
        | None -> best := Some (u.dist, view.View.nbr_ids.(i))
        | Some (d, _) -> if u.dist < d then best := Some (u.dist, view.View.nbr_ids.(i))
      done;
      match !best with
      | Some (d, p) when d + 1 <= view.View.n -> { parent = p; dist = d + 1 }
      | _ -> { parent = -1; dist = view.View.n }
    end

  let step view =
    let fresh = target view in
    (* Keep the current parent if it still certifies the same distance,
       so the protocol is silent once distances are exact. *)
    let s = view.View.self in
    let keep =
      s.dist = fresh.dist
      &&
      if view.View.id = 0 then s.parent = -1
      else
        match View.index view s.parent with
        | i -> view.View.nbrs.(i).dist + 1 = s.dist
        | exception Not_found -> false
    in
    if keep then None else if equal_state s fresh then None else Some fresh

  let is_legal g sts =
    Repro_runtime.Protocol.certified ~words:2 ~pack:(fun ~n:_ s -> pack s) ~certify
      ~certify_tree:(fun _ _ -> true)
      g sts

  (* Same distance-defect potential as the PLS-guided BFS: Σ_v |d(v) −
     dist_G(v, 0)|, capped per node. *)
  let potential g sts =
    let d = Traversal.bfs_distances g ~src:0 in
    let n = Graph.n g in
    let total = ref 0 in
    Array.iteri
      (fun v (s : state) ->
        let dv = if s.dist < 0 then n else min s.dist n in
        total := !total + abs (dv - min d.(v) n))
      sts;
    Some !total

  let classify =
    Some (fun old fresh -> if old.parent <> fresh.parent then "reparent" else "dist")
end

module Engine = Repro_runtime.Engine.Make (P)

module Packed = struct
  include P

  let words = 2
  let pack ~n:_ s = pack s
  let unpack ~n:_ a = { parent = a.(0); dist = a.(1) }

  let step_packed (pv : Repro_runtime.Pview.t) =
    let open Repro_runtime in
    let bank = pv.Pview.bank in
    let par = bank.(0) and dis = bank.(1) in
    let id = pv.Pview.focus in
    let n = pv.Pview.n in
    let row = pv.Pview.row and col = pv.Pview.col in
    let s_parent = par.(id) and s_dist = dis.(id) in
    (* [target]: the root pins (-1, 0); everyone else joins the first
       minimum-distance neighbor in increasing id order (the boxed
       scan's strict-< keeps the earliest minimum). *)
    let fp = ref (-1) and fd = ref 0 in
    (* The parent's dist, taken when the scan meets it: no node is its
       own neighbour, so a parent that is not a neighbour (or is -1)
       leaves [p_found] false and fails validity. *)
    let p_found = ref false and p_dist = ref 0 in
    if id <> 0 then begin
      let has = ref false in
      let bd = ref 0 and bp = ref 0 in
      for i = row.(id) to row.(id + 1) - 1 do
        let u = col.(i) in
        let du = dis.(u) in
        if u = s_parent then begin
          p_found := true;
          p_dist := du
        end;
        if (not !has) || du < !bd then begin
          has := true;
          bd := du;
          bp := u
        end
      done;
      if !has && !bd + 1 <= n then begin
        fp := !bp;
        fd := !bd + 1
      end
      else begin
        fp := -1;
        fd := n
      end
    end;
    let keep =
      s_dist = !fd
      &&
      if id = 0 then s_parent = -1
      else !p_found && !p_dist + 1 = s_dist
    in
    if keep then false
    else if s_parent = !fp && s_dist = !fd then false
    else begin
      pv.Pview.move.(0) <- !fp;
      pv.Pview.move.(1) <- !fd;
      true
    end

  let certify = certify
  let certify_tree _ _ = true

  (* The guards read [n] in the TTL test [d + 1 <= n] on the minimum
     neighbour distance and as the fallback distance [n] it selects, so
     a neighbour whose dist lane is at least [min n n'] may flip them. *)
  let n_sensitive ~n ~n' bank u = bank.(1).(u) + 1 > min n n'
  let parent_lane = 0
end

module Engine_packed = Repro_runtime.Engine_packed.Make (Packed)
