module View = Repro_runtime.View
module Space = Repro_runtime.Space
module Graph = Repro_graph.Graph
module Tree = Repro_graph.Tree

type t = { parent : int; root : int; dist : int }

let equal (a : t) b = a.parent = b.parent && a.root = b.root && a.dist = b.dist
let pp ppf s = Format.fprintf ppf "(p=%d,r=%d,d=%d)" s.parent s.root s.dist

(* Rule tag for the transition [old -> fresh], shared by every protocol
   that embeds the layer (see Protocol.S.classify). *)
let classify (old : t) (fresh : t) =
  if fresh.parent = -1 && old.parent <> -1 then "reset"
  else if old.root <> fresh.root then "join-root"
  else if old.parent <> fresh.parent then "reparent"
  else "dist"
let size_bits n _ = Space.id_bits n + Space.id_bits n + Space.dist_bits n
let self_root id = { parent = -1; root = id; dist = 0 }

let random rng ~n =
  {
    parent = Random.State.int rng (n + 1) - 1;
    root = Random.State.int rng n;
    dist = Random.State.int rng (n + 1);
  }

(* A neighbor state can serve as a parent if its (root, dist) could be
   extended without blowing the distance TTL. *)
let usable n (u : t) = u.root >= 0 && u.dist >= 0 && u.dist + 1 <= n - 1

let parent_state view ~get s =
  if s.parent = -1 then None
  else
    match View.index view s.parent with
    | i -> Some (get view.View.nbrs.(i))
    | exception Not_found -> None

let valid_state view ~get s =
  let n = view.View.n in
  if s.parent = -1 then s.root = view.View.id && s.dist = 0
  else
    match parent_state view ~get s with
    | Some p -> usable n p && s.root = p.root && s.dist = p.dist + 1
    | None -> false

let valid view ~get = valid_state view ~get (get view.View.self)

(* Best joinable neighbor, lexicographic on (root, dist+1, id). *)
let best_join view ~get =
  let n = view.View.n in
  let found = ref false in
  let br = ref 0 and bd = ref 0 and bu = ref 0 in
  for i = 0 to view.View.degree - 1 do
    let u = get view.View.nbrs.(i) in
    if usable n u then begin
      let d = u.dist + 1 and id = view.View.nbr_ids.(i) in
      if
        (not !found)
        || u.root < !br
        || (u.root = !br && (d < !bd || (d = !bd && id < !bu)))
      then begin
        found := true;
        br := u.root;
        bd := d;
        bu := id
      end
    end
  done;
  if !found then Some (!br, !bd, !bu) else None

let step view ~get ~keep_shape =
  let s = get view.View.self in
  let id = view.View.id in
  let n = view.View.n in
  let best = best_join view ~get in
  let valid = valid_state view ~get s in
  let better_exists =
    id < s.root
    ||
    match best with
    | Some (r, d, _) -> if keep_shape then r < s.root else r < s.root || (r = s.root && d < s.dist)
    | None -> false
  in
  if valid && not better_exists then None
  else begin
    let r_best = match best with Some (r, _, _) -> Int.min id r | None -> id in
    let fresh =
      if r_best = id then self_root id
      else begin
        (* Prefer keeping the current parent when it offers the best
           root, so upper layers' tree surgery survives dist repair. *)
        match parent_state view ~get s with
        | Some p when keep_shape && usable n p && p.root = r_best ->
            { parent = s.parent; root = r_best; dist = p.dist + 1 }
        | _ -> (
            match best with
            | Some (r, d, u) when r = r_best -> { parent = u; root = r; dist = d }
            | _ -> self_root id)
      end
    in
    if equal fresh s then None else Some fresh
  end

(* ------------------------------------------------------------------ *)
(* Packed representation: lanes 0=parent, 1=root, 2=dist. The layer's
   fields are plain small ints, so the codec is the identity on each
   field (see SCALING.md for the bank layout and PAPER_MAP.md for the
   bits accounting). *)

let words = 3
let pack (s : t) = [| s.parent; s.root; s.dist |]
let unpack a = { parent = a.(0); root = a.(1); dist = a.(2) }

(* [step ~get:Fun.id] translated to int lanes: same usable predicate,
   same lexicographic (root, dist+1, id) best-join, same tie-breaking.
   Pinned against the boxed step pointwise and whole-run by
   test_packed. *)
let step_packed (pv : Repro_runtime.Pview.t) ~keep_shape =
  let open Repro_runtime in
  let bank = pv.Pview.bank in
  let par = bank.(0) and roo = bank.(1) and dis = bank.(2) in
  let id = pv.Pview.focus in
  let n = pv.Pview.n in
  let row = pv.Pview.row and col = pv.Pview.col in
  let s_parent = par.(id) and s_root = roo.(id) and s_dist = dis.(id) in
  (* Best joinable neighbor, lexicographic on (root, dist+1, id); the
     CSR segment is in increasing neighbor order like View.nbr_ids. *)
  let has_best = ref false in
  let br = ref 0 and bd = ref 0 and bu = ref 0 in
  for i = row.(id) to row.(id + 1) - 1 do
    let u = col.(i) in
    let ur = roo.(u) and ud = dis.(u) in
    if ur >= 0 && ud >= 0 && ud + 1 <= n - 1 then begin
      let d = ud + 1 in
      if
        (not !has_best)
        || ur < !br
        || (ur = !br && (d < !bd || (d = !bd && u < !bu)))
      then begin
        has_best := true;
        br := ur;
        bd := d;
        bu := u
      end
    end
  done;
  let p_idx =
    if s_parent = -1 then -1
    else match Pview.index pv s_parent with i -> i | exception Not_found -> -1
  in
  let parent_usable =
    p_idx >= 0
    &&
    let p = col.(p_idx) in
    roo.(p) >= 0 && dis.(p) >= 0 && dis.(p) + 1 <= n - 1
  in
  let valid =
    if s_parent = -1 then s_root = id && s_dist = 0
    else
      parent_usable
      &&
      let p = col.(p_idx) in
      s_root = roo.(p) && s_dist = dis.(p) + 1
  in
  let better_exists =
    id < s_root
    || (!has_best
       &&
       if keep_shape then !br < s_root
       else !br < s_root || (!br = s_root && !bd < s_dist))
  in
  if valid && not better_exists then false
  else begin
    let r_best = if !has_best then min id !br else id in
    (* fresh defaults to self_root id; built directly in the move
       scratch (allocation-free — the engine only reads it on [true]). *)
    let mv = pv.Pview.move in
    mv.(0) <- -1;
    mv.(1) <- id;
    mv.(2) <- 0;
    if r_best <> id then
      if keep_shape && parent_usable && roo.(col.(p_idx)) = r_best then begin
        mv.(0) <- s_parent;
        mv.(1) <- r_best;
        mv.(2) <- dis.(col.(p_idx)) + 1
      end
      else if !has_best && !br = r_best then begin
        mv.(0) <- !bu;
        mv.(1) <- !br;
        mv.(2) <- !bd
      end;
    not (mv.(0) = s_parent && mv.(1) = s_root && mv.(2) = s_dist)
  end

(* The layer's per-node certificate of st_layer.mli, on the lanes. *)
let certify g bank v =
  let n = Graph.n g in
  let par = bank.(0) and dis = bank.(2) in
  bank.(1).(v) = 0
  &&
  if v = 0 then par.(0) = -1 && dis.(0) = 0
  else
    let p = par.(v) in
    p >= 0 && p < n && dis.(v) = dis.(p) + 1

let is_legal g sts =
  Repro_runtime.Protocol.certified ~words
    ~pack:(fun ~n:_ s -> pack s)
    ~certify
    ~certify_tree:(fun _ _ -> true)
    g sts

(* [usable]'s TTL test on the dist lane, under either node count. *)
let n_sensitive ~n ~n' bank u =
  let x = bank.(2).(u) in
  (x + 1 <= n - 1) <> (x + 1 <= n' - 1)

let tree_of g sts =
  let parent = Array.map (fun s -> s.parent) sts in
  if Tree.check_parents ~root:0 parent then Some (Tree.of_parents ~root:0 parent)
  else begin
    ignore g;
    None
  end
