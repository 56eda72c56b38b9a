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
(* Packed representation: lane 0 = parent, lane 1 = (root, dist) as two
   31-bit signed fields, so a guard reads a neighbour's (root, dist) in
   one word (see st_layer.mli for the range and SCALING.md for the bank
   layout). The low field is stored biased by 2^30, which keeps it
   non-negative: a lane orders like its pair, lexicographically, and it
   is negative iff its high field is. *)

let half = 0x4000_0000
let fits x = x >= -half && x < half
let pair hi lo = (hi lsl 31) lor (lo + half)
let hi lane = lane asr 31
let lo lane = (lane land 0x7FFF_FFFF) - half
let words = 2

let pack (s : t) =
  if not (fits s.root && fits s.dist) then
    invalid_arg "St_layer.pack: root or dist outside 31 signed bits";
  [| s.parent; pair s.root s.dist |]

let unpack a = { parent = a.(0); root = hi a.(1); dist = lo a.(1) }

(* [step ~get:Fun.id ~keep_shape:false] translated to int lanes: same
   usable predicate, same lexicographic (root, dist+1, id) best-join,
   same tie-breaking. Pinned against the boxed step pointwise and
   whole-run by test_packed. *)
let step_packed (pv : Repro_runtime.Pview.t) =
  let open Repro_runtime in
  let bank = pv.Pview.bank in
  let par = bank.(0) and rdi = bank.(1) in
  let id = pv.Pview.focus in
  let n = pv.Pview.n in
  let row = pv.Pview.row and col = pv.Pview.col in
  let s_parent = par.(id) and s_rd = rdi.(id) in
  let s_root = hi s_rd and s_dist = lo s_rd in
  (* Best joinable neighbor, lexicographic on (root, dist+1, id); the
     CSR segment is in increasing neighbor order like View.nbr_ids. A
     usable neighbour's dist + 1 stays in range, so its lane plus one
     is the pair (root, dist + 1) and orders like it. *)
  let has_best = ref false in
  let bkey = ref 0 and bu = ref 0 in
  (* The parent's lane, taken when the scan meets it: no node is its
     own neighbour, so a parent that is not a neighbour (or is -1)
     leaves it -1 and fails validity. *)
  let p_rd = ref (-1) in
  for i = row.(id) to row.(id + 1) - 1 do
    let u = col.(i) in
    let rd = rdi.(u) in
    if u = s_parent then p_rd := rd;
    let ud = lo rd in
    if rd >= 0 && ud >= 0 && ud + 1 <= n - 1 then begin
      let key = rd + 1 in
      if (not !has_best) || key < !bkey || (key = !bkey && u < !bu) then begin
        has_best := true;
        bkey := key;
        bu := u
      end
    end
  done;
  let p_rd = !p_rd in
  let parent_usable = p_rd >= 0 && lo p_rd >= 0 && lo p_rd + 1 <= n - 1 in
  let valid =
    if s_parent = -1 then s_root = id && s_dist = 0
    else parent_usable && s_rd = p_rd + 1
  in
  let better_exists = id < s_root || (!has_best && !bkey < s_rd) in
  if valid && not better_exists then false
  else begin
    (* fresh is the best join when its root is below id, else
       self_root id; built directly in the move scratch (allocation-free
       — the engine only reads it on [true]). *)
    let mv = pv.Pview.move in
    if !has_best && hi !bkey < id then begin
      mv.(0) <- !bu;
      mv.(1) <- !bkey
    end
    else begin
      mv.(0) <- -1;
      mv.(1) <- pair id 0
    end;
    not (mv.(0) = s_parent && mv.(1) = s_rd)
  end

(* The layer's per-node certificate of st_layer.mli, on the lanes. *)
let certify g bank v =
  let n = Graph.n g in
  let par = bank.(0) and rdi = bank.(1) in
  hi rdi.(v) = 0
  &&
  if v = 0 then par.(0) = -1 && lo rdi.(0) = 0
  else
    let p = par.(v) in
    p >= 0 && p < n && lo rdi.(v) = lo rdi.(p) + 1

(* A register the codec cannot hold is never legal: legality pins root
   to 0 and dist to [0, n). *)
let certified ~certify g sts =
  Array.for_all (fun s -> fits s.root && fits s.dist) sts
  && Repro_runtime.Protocol.certified ~words
       ~pack:(fun ~n:_ s -> pack s)
       ~certify
       ~certify_tree:(fun _ _ -> true)
       g sts

let is_legal g sts = certified ~certify g sts

(* [usable]'s TTL test on the dist lane, under either node count. *)
let n_sensitive ~n ~n' bank u =
  let x = lo bank.(1).(u) in
  (x + 1 <= n - 1) <> (x + 1 <= n' - 1)

let tree_of g sts =
  let parent = Array.map (fun s -> s.parent) sts in
  if Tree.check_parents ~root:0 parent then Some (Tree.of_parents ~root:0 parent)
  else begin
    ignore g;
    None
  end
