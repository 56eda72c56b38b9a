module Graph = Repro_graph.Graph
module Tree = Repro_graph.Tree
module Mst = Repro_graph.Mst
module View = Repro_runtime.View
module Space = Repro_runtime.Space
module E = Graph.Edge

type state = { parent : int; frag : int; fdist : int; moe : (E.t * int) option }

module P = struct
  type nonrec state = state

  let equal_state (a : state) b = a = b

  let pp_state ppf s =
    Format.fprintf ppf "(p=%d,frag=%d,fd=%d%s)" s.parent s.frag s.fdist
      (match s.moe with Some (e, d) -> Format.asprintf ",moe=%a@%d" E.pp e d | None -> "")

  let size_bits n s =
    (2 * Space.id_bits n) + Space.dist_bits n
    + Space.opt (fun (_, _) -> Space.edge_bits n + Space.dist_bits n) s.moe

  let singleton v = { parent = -1; frag = v; fdist = 0; moe = None }
  let initial _ v = singleton v

  let random_state rng g _ =
    let n = Graph.n g in
    let random_edge () =
      let a = Random.State.int rng n and b = Random.State.int rng n in
      (* At n = 1 the other endpoint is the non-node 1: register garbage,
         never a self-loop. For n >= 2, [max 2 n = n]. *)
      if a = b then E.make a ((b + 1) mod max 2 n) (1 + Random.State.int rng (n * n))
      else E.make a b (1 + Random.State.int rng (n * n))
    in
    {
      parent = Random.State.int rng (n + 1) - 1;
      frag = Random.State.int rng n;
      fdist = Random.State.int rng (n + 1);
      moe =
        (if Random.State.bool rng then None
         else Some (random_edge (), Random.State.int rng n));
    }

  (* Minimum outgoing target over: my own boundary edges (hops 0) and
     same-fragment neighbors' moes (hops+1, TTL n). *)
  let moe_target (view : state View.t) =
    let s = view.View.self in
    let best = ref None in
    let consider e d =
      match !best with
      | Some (b, bd) ->
          if E.compare e b < 0 || (E.equal e b && d < bd) then best := Some (e, d)
      | None -> best := Some (e, d)
    in
    for i = 0 to view.View.degree - 1 do
      let nb = view.View.nbrs.(i) in
      if nb.frag <> s.frag then
        consider (E.make view.View.id view.View.nbr_ids.(i) view.View.nbr_weights.(i)) 0
      else
        match nb.moe with
        | Some (e, d) when d + 1 <= view.View.n -> consider e (d + 1)
        | _ -> ()
    done;
    !best

  let step (view : state View.t) =
    let s = view.View.self in
    let n = view.View.n in
    let id = view.View.id in
    (* 1. Structural sanity of the fragment tree. *)
    let parent_state =
      if s.parent = -1 then None
      else
        match View.index view s.parent with
        | i -> Some view.View.nbrs.(i)
        | exception Not_found -> None
    in
    let valid =
      if s.parent = -1 then s.frag = id && s.fdist = 0
      else
        match parent_state with
        | Some p -> s.frag = p.frag && s.fdist = p.fdist + 1 && s.fdist <= n - 1
        | None -> false
    in
    if not valid then begin
      (* Follow the parent if possible, else reset to a singleton. *)
      match parent_state with
      | Some p when p.fdist + 1 <= n - 1 ->
          Some { s with frag = p.frag; fdist = p.fdist + 1 }
      | _ -> Some (singleton id)
    end
    else begin
      (* 2. Minimum-outgoing-edge fixpoint. *)
      let target = moe_target view in
      if target <> s.moe then Some { s with moe = target }
      else begin
        (* 3. Merge across my own MOE, toward the smaller fragment id,
           once my neighborhood agrees on the edge. *)
        match s.moe with
        | Some (e, 0) when E.mem e id -> (
            let other = E.other e id in
            match View.index view other with
            | exception Not_found -> None
            | i ->
                let onb = view.View.nbrs.(i) in
                let neighborhood_agrees =
                  View.for_all
                    (fun _ _ nb -> nb.frag <> s.frag ||
                       match nb.moe with Some (e', _) -> E.equal e' e | None -> false)
                    view
                in
                if onb.frag < s.frag && neighborhood_agrees && onb.fdist + 1 <= n - 1 then
                  Some { s with parent = other; frag = onb.frag; fdist = onb.fdist + 1 }
                else None)
        | _ -> None
      end
    end

  (* The encoded spanning tree of [g]; arbitrary registers may encode a
     tree over non-edges, which has no weight in [g]. *)
  let tree_of g sts =
    let parent = Array.map (fun s -> s.parent) sts in
    if Tree.check_parents ~root:0 parent then
      let t = Tree.of_parents ~root:0 parent in
      if Tree.in_graph t g then Some t else None
    else None

  let is_legal g sts = match tree_of g sts with Some t -> Mst.is_mst g t | None -> false

  (* Weight gap to the MST — 0 exactly on MSTs, so a silent-but-wrong
     fixpoint (the E9 failure mode) shows as a non-zero final phi. *)
  let potential g sts =
    Option.map (fun t -> Tree.weight t g - Mst.mst_weight g) (tree_of g sts)

  let classify =
    Some
      (fun old fresh ->
        if old.parent <> fresh.parent then "merge"
        else if old.moe <> fresh.moe then "moe"
        else "frag-repair")
end

module Engine = Repro_runtime.Engine.Make (P)

let failure_rate rng g ~trials =
  let failures = ref 0 in
  for _ = 1 to trials do
    let init = Engine.adversarial rng g in
    let r = Engine.run ~max_rounds:20_000 g Repro_runtime.Scheduler.Synchronous rng ~init in
    if r.Engine.silent && not r.Engine.legal then incr failures
  done;
  float_of_int !failures /. float_of_int trials
