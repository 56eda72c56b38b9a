module Graph = Repro_graph.Graph
module View = Repro_runtime.View
module Space = Repro_runtime.Space

type state = { parent : int; root : int; wdist : int; hops : int }

(* Lazy-deletion Dijkstra over the CSR with a binary min-heap of
   (key, node) pairs held in two int arrays. With non-negative weights
   every node is settled once and every push follows a strict
   improvement along one directed edge, so 2m + 1 slots suffice. *)
let dijkstra g ~src =
  let n = Graph.n g in
  let row = Graph.csr_row g and col = Graph.csr_col g and wgt = Graph.csr_wgt g in
  let dist = Array.make n max_int in
  let cap = Array.length col + 1 in
  let hk = Array.make cap 0 and hv = Array.make cap 0 in
  let size = ref 0 in
  let push k v =
    let i = ref !size in
    incr size;
    while !i > 0 && hk.((!i - 1) / 2) > k do
      let p = (!i - 1) / 2 in
      hk.(!i) <- hk.(p);
      hv.(!i) <- hv.(p);
      i := p
    done;
    hk.(!i) <- k;
    hv.(!i) <- v
  in
  (* Drop the root: sift the last pair down from slot 0. *)
  let pop () =
    decr size;
    let k = hk.(!size) and v = hv.(!size) in
    let i = ref 0 and continue = ref true in
    while !continue do
      let c = (2 * !i) + 1 in
      if c >= !size then continue := false
      else begin
        let c = if c + 1 < !size && hk.(c + 1) < hk.(c) then c + 1 else c in
        if hk.(c) < k then begin
          hk.(!i) <- hk.(c);
          hv.(!i) <- hv.(c);
          i := c
        end
        else continue := false
      end
    done;
    hk.(!i) <- k;
    hv.(!i) <- v
  in
  dist.(src) <- 0;
  push 0 src;
  while !size > 0 do
    let d = hk.(0) and u = hv.(0) in
    pop ();
    if d = dist.(u) then
      for i = row.(u) to row.(u + 1) - 1 do
        let v = col.(i) and nd = d + wgt.(i) in
        if nd < dist.(v) then begin
          dist.(v) <- nd;
          push nd v
        end
      done
  done;
  dist

(* An upper bound on any simple-path weight: total edge weight + 1 acts
   as infinity; hop counts are TTL-bounded by n as in St_layer. *)
let infinity_of g = Graph.total_weight g + 1

let potential g sts =
  let d = dijkstra g ~src:0 in
  let inf = infinity_of g in
  let total = ref 0 in
  Array.iteri
    (fun v (s : state) ->
      let dv = if s.wdist < 0 then inf else min s.wdist inf in
      total := !total + abs (dv - min d.(v) inf))
    sts;
  !total

(* Lanes: 0 = parent, 1 = (root, hops) as {!St_layer}'s 31-bit pair,
   2 = wdist (see spt_builder.mli for the range, SCALING.md for the
   layout). [wdist] keeps a whole lane: an adversarial start plus edge
   sums can exceed 2^30. *)
let words = 3

let pack (s : state) =
  if not (St_layer.fits s.root && St_layer.fits s.hops) then
    invalid_arg "Spt_builder.pack: root or hops outside 31 signed bits";
  [| s.parent; St_layer.pair s.root s.hops; s.wdist |]

let unpack a =
  { parent = a.(0); root = St_layer.hi a.(1); wdist = a.(2); hops = St_layer.lo a.(1) }

(* The per-node certificate of spt_builder.mli on the lanes, no heap. An
   edge sum can overflow only next to a [wdist] above the total weight,
   and that node's own conjunct already fails. *)
let certify g bank v =
  let par = bank.(0) and wdi = bank.(2) in
  let w = wdi.(v) in
  St_layer.hi bank.(1).(v) = 0
  && w >= 0
  && w <= Graph.total_weight g
  && (v <> 0 || w = 0)
  &&
  let row = Graph.csr_row g and col = Graph.csr_col g and wgt = Graph.csr_wgt g in
  let ok = ref true and tight = ref (v = 0) in
  for i = row.(v) to row.(v + 1) - 1 do
    let u = col.(i) in
    let via = wdi.(u) + wgt.(i) in
    if via < w then ok := false else if u = par.(v) && via = w then tight := true
  done;
  !ok && !tight

let certify_tree _ bank = Repro_graph.Tree.check_parents ~root:0 bank.(0)

module P = struct
  type nonrec state = state

  let equal_state (a : state) b = a = b

  let pp_state ppf s =
    Format.fprintf ppf "(p=%d,r=%d,w=%d,h=%d)" s.parent s.root s.wdist s.hops

  let size_bits n _ =
    Space.id_bits n + Space.id_bits n + Space.weight_bits n + Space.dist_bits n

  let self_root v = { parent = -1; root = v; wdist = 0; hops = 0 }
  let initial _ v = self_root v

  let random_state rng g _ =
    let n = Graph.n g in
    {
      parent = Random.State.int rng (n + 1) - 1;
      root = Random.State.int rng n;
      (* Random.State.int rejects bounds >= 2^30; on big-n graphs (the
         BIG bench tier) the weight sum exceeds it, so clamp — draws on
         every smaller graph are unchanged. *)
      wdist = Random.State.int rng (min (infinity_of g) 0x3FFF_FFFF);
      hops = Random.State.int rng (n + 1);
    }

  let step (view : state View.t) =
    let s = view.View.self in
    let id = view.View.id in
    let n = view.View.n in
    let usable (u : state) = u.root >= 0 && u.wdist >= 0 && u.hops + 1 <= n - 1 in
    let parent_state =
      if s.parent = -1 then None
      else
        match View.index view s.parent with
        | i -> Some (view.View.nbrs.(i), view.View.nbr_weights.(i))
        | exception Not_found -> None
    in
    let valid =
      if s.parent = -1 then s.root = id && s.wdist = 0 && s.hops = 0
      else
        match parent_state with
        | Some (p, w) ->
            usable p && s.root = p.root && s.wdist = p.wdist + w && s.hops = p.hops + 1
        | None -> false
    in
    (* Best joinable neighbor by (root, weighted distance, hops, id). *)
    let best = ref None in
    for i = 0 to view.View.degree - 1 do
      let u = view.View.nbrs.(i) in
      let w = view.View.nbr_weights.(i) in
      if usable u then begin
        let cand = (u.root, u.wdist + w, u.hops + 1, view.View.nbr_ids.(i)) in
        match !best with
        | None -> best := Some cand
        | Some b -> if cand < b then best := Some cand
      end
    done;
    let better_exists =
      id < s.root
      ||
      match !best with
      | Some (r, wd, _, _) -> (r, wd) < (s.root, s.wdist)
      | None -> false
    in
    if valid && not better_exists then None
    else begin
      let fresh =
        match !best with
        | Some (r, wd, h, u) when r < id -> { parent = u; root = r; wdist = wd; hops = h }
        | _ -> self_root id
      in
      if equal_state fresh s then None else Some fresh
    end

  (* Legality reads no hops and pins root to 0, so a register whose root
     the codec cannot hold is not legal and hops is packed as 0. *)
  let is_legal g sts =
    Array.for_all (fun s -> St_layer.fits s.root) sts
    && Repro_runtime.Protocol.certified ~words
         ~pack:(fun ~n:_ s -> pack { s with hops = 0 })
         ~certify ~certify_tree g sts

  let potential g sts = Some (potential g sts)

  let classify =
    Some
      (fun old fresh ->
        if fresh.parent = -1 && old.parent <> -1 then "reset"
        else if old.root <> fresh.root then "join-root"
        else if old.parent <> fresh.parent then "reparent"
        else if old.wdist <> fresh.wdist then "dist"
        else "hops")
end

(* [St_layer.hi] and [St_layer.lo], restated so that the guard below,
   which decodes two fields per neighbour, inlines them: dune's default
   profile compiles each module opaquely, so a call into St_layer stays
   a call. The codec round-trip and packed-equivalence properties
   (test_packed) pin them to [St_layer.pair]. *)
let hi lane = lane asr 31
let lo lane = (lane land 0x7FFF_FFFF) - 0x4000_0000

module Packed = struct
  include P

  let words = words
  let pack ~n:_ s = pack s
  let unpack ~n:_ a = unpack a
  let parent_lane = 0

  (* [P.step] on the flat bank: same usable predicate, same lexicographic
     (root, wdist+w, hops+1, id) best, same tie-breaking. Pinned against
     the boxed step by test_packed. *)
  let step_packed (pv : Repro_runtime.Pview.t) =
    let open Repro_runtime in
    let bank = pv.Pview.bank in
    let par = bank.(0) and rho = bank.(1) and wdi = bank.(2) in
    let id = pv.Pview.focus in
    let n = pv.Pview.n in
    let row = pv.Pview.row and col = pv.Pview.col and wgt = pv.Pview.wgt in
    let s_parent = par.(id) and s_rh = rho.(id) and s_wdist = wdi.(id) in
    let s_root = hi s_rh in
    (* usable u := root(u) >= 0 && wdi.(u) >= 0 && hops(u) + 1 <= n - 1,
       spelled out at each use — a local predicate closure would
       allocate on the hot path. A lane is negative iff its root is,
       and a usable neighbour's lane plus one is (root, hops + 1). *)
    let has_best = ref false in
    let br = ref 0 and bwd = ref 0 and bh = ref 0 and bu = ref 0 in
    (* The parent's lanes and edge weight, taken when the scan meets it:
       no node is its own neighbour, so a parent that is not a
       neighbour (or is -1) leaves [p_found] false and fails validity. *)
    let p_found = ref false in
    let p_rh = ref 0 and p_wd = ref 0 and p_w = ref 0 in
    for i = row.(id) to row.(id + 1) - 1 do
      let u = col.(i) in
      let rh = rho.(u) and wd_u = wdi.(u) in
      if u = s_parent then begin
        p_found := true;
        p_rh := rh;
        p_wd := wd_u;
        p_w := wgt.(i)
      end;
      if rh >= 0 && wd_u >= 0 && lo rh + 1 <= n - 1 then begin
        let r = hi rh and wd = wd_u + wgt.(i) and h = lo rh + 1 in
        if
          (not !has_best)
          || r < !br
          || (r = !br
             && (wd < !bwd || (wd = !bwd && (h < !bh || (h = !bh && u < !bu)))))
        then begin
          has_best := true;
          br := r;
          bwd := wd;
          bh := h;
          bu := u
        end
      end
    done;
    let valid =
      if s_parent = -1 then s_rh = St_layer.pair id 0 && s_wdist = 0
      else
        !p_found
        && !p_rh >= 0
        && !p_wd >= 0
        && lo !p_rh + 1 <= n - 1
        && s_rh = !p_rh + 1
        && s_wdist = !p_wd + !p_w
    in
    let better_exists =
      id < s_root
      || (!has_best && (!br < s_root || (!br = s_root && !bwd < s_wdist)))
    in
    if valid && not better_exists then false
    else begin
      let fp = ref (-1) and fr = ref id and fwd = ref 0 and fh = ref 0 in
      if !has_best && !br < id then begin
        fp := !bu;
        fr := !br;
        fwd := !bwd;
        fh := !bh
      end;
      let f_rh = St_layer.pair !fr !fh in
      if !fp = s_parent && f_rh = s_rh && !fwd = s_wdist then false
      else begin
        pv.Pview.move.(0) <- !fp;
        pv.Pview.move.(1) <- f_rh;
        pv.Pview.move.(2) <- !fwd;
        true
      end
    end

  let certify = certify
  let certify_tree = certify_tree

  (* [usable]'s TTL test on the hops field. *)
  let n_sensitive ~n ~n' bank u =
    let h = St_layer.lo bank.(1).(u) in
    (h + 1 <= n - 1) <> (h + 1 <= n' - 1)
end

module Engine = Repro_runtime.Engine.Make (P)
module Engine_packed = Repro_runtime.Engine_packed.Make (Packed)

let is_spt = P.is_legal
