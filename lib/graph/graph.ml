module Edge = struct
  type t = { u : int; v : int; w : int }

  let make u v w =
    if u = v then invalid_arg "Edge.make: self-loop"
    else if u < v then { u; v; w }
    else { u = v; v = u; w }

  let compare a b =
    let c = compare a.w b.w in
    if c <> 0 then c
    else
      let c = compare a.u b.u in
      if c <> 0 then c else compare a.v b.v

  let equal a b = a.u = b.u && a.v = b.v && a.w = b.w
  let mem e x = e.u = x || e.v = x

  let other e x =
    if e.u = x then e.v
    else if e.v = x then e.u
    else invalid_arg "Edge.other: not an endpoint"

  let pp ppf e = Format.fprintf ppf "{%d,%d}/%d" e.u e.v e.w
end

type t = {
  n : int;
  edges : Edge.t array;
  (* The adjacency, in CSR form: node v's neighbors are
     col.[row.(v) .. row.(v+1)-1] (increasing), weights aligned in wgt.
     Three flat arrays instead of n boxed pair-arrays, so a neighbor scan
     is one contiguous read. *)
  csr_row : int array;
  csr_col : int array;
  csr_wgt : int array;
  (* Memo of [neighbors]: row v is boxed from the CSR on first use and
     is [||] until then (an unused row costs one word). The packed engine
     reads the CSR only, so at n = 10⁵ almost no row is ever boxed. Two
     domains racing on one row each write an equal row; either may
     stay. *)
  rows : (int * int) array array;
  (* Precomputed at construction: [total_weight] is on the per-node
     hot path of spt's adversarial initialization (its infinity bound),
     and summing m edges per query made that O(n·m). *)
  total_w : int;
}

(* The one constructor. A first pass range-checks the edges, counts
   degrees into the row pointers and sums the weights. A second fills
   every CSR row in edge order, unsorted. The symmetric transpose then
   scans rows [y] ascending and appends [y] to the row of each of its
   neighbours, so every row comes out sorted with no comparison sort and
   a duplicate edge shows up as two equal adjacent entries. *)
let rec of_edge_array n (edges : Edge.t array) =
  if n <= 0 then invalid_arg "Graph.of_edge_list: n must be positive";
  let m = Array.length edges in
  let row = Array.make (n + 1) 0 in
  let total_w = ref 0 and i = ref 0 in
  while !i < m && edges.(!i).u >= 0 && edges.(!i).v < n do
    let e = edges.(!i) in
    row.(e.u + 1) <- row.(e.u + 1) + 1;
    row.(e.v + 1) <- row.(e.v + 1) + 1;
    total_w := !total_w + e.w;
    incr i
  done;
  if !i < m then begin
    (* The first offender in edge order decides the message: a
       duplicate ahead of the out-of-range edge raises from here. *)
    ignore (of_edge_array n (Array.sub edges 0 !i));
    invalid_arg "Graph.of_edge_list: endpoint out of range"
  end;
  for v = 0 to n - 1 do
    row.(v + 1) <- row.(v + 1) + row.(v)
  done;
  let m2 = row.(n) in
  let next = Array.sub row 0 n in
  let push col wgt x y w =
    col.(next.(x)) <- y;
    wgt.(next.(x)) <- w;
    next.(x) <- next.(x) + 1
  in
  let col0 = Array.make m2 0 and wgt0 = Array.make m2 0 in
  Array.iter
    (fun (e : Edge.t) ->
      push col0 wgt0 e.u e.v e.w;
      push col0 wgt0 e.v e.u e.w)
    edges;
  Array.blit row 0 next 0 n;
  let col = Array.make (max 1 m2) 0 and wgt = Array.make (max 1 m2) 0 in
  for y = 0 to n - 1 do
    for k = row.(y) to row.(y + 1) - 1 do
      push col wgt col0.(k) y wgt0.(k)
    done
  done;
  for v = 0 to n - 1 do
    for k = row.(v) + 1 to row.(v + 1) - 1 do
      if col.(k) = col.(k - 1) then invalid_arg "Graph.of_edge_list: duplicate edge"
    done
  done;
  {
    n;
    edges;
    csr_row = row;
    csr_col = col;
    csr_wgt = wgt;
    rows = Array.make n [||];
    total_w = !total_w;
  }

let of_edge_list n es = of_edge_array n (Array.of_list es)

let of_edges n es =
  of_edge_array n (Array.map (fun (u, v, w) -> Edge.make u v w) (Array.of_list es))

let n g = g.n
let m g = Array.length g.edges
let csr_row g = g.csr_row
let csr_col g = g.csr_col
let csr_wgt g = g.csr_wgt
let edges g = Array.copy g.edges
let degree g v = g.csr_row.(v + 1) - g.csr_row.(v)

let neighbors g v =
  let r = g.rows.(v) and base = g.csr_row.(v) in
  let d = g.csr_row.(v + 1) - base in
  if Array.length r = d then r
  else begin
    let r = Array.init d (fun i -> (g.csr_col.(base + i), g.csr_wgt.(base + i))) in
    g.rows.(v) <- r;
    r
  end

let max_degree g =
  let best = ref 0 in
  for v = 0 to g.n - 1 do
    if degree g v > !best then best := degree g v
  done;
  !best

(* Binary search in the sorted CSR row of [u]: the slot of [v], or -1. *)
let slot g u v =
  let lo = ref g.csr_row.(u) and hi = ref g.csr_row.(u + 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if g.csr_col.(mid) < v then lo := mid + 1 else hi := mid
  done;
  if !lo < g.csr_row.(u + 1) && g.csr_col.(!lo) = v then !lo else -1

let has_edge g u v = slot g u v >= 0

let weight g u v =
  let k = slot g u v in
  if k < 0 then raise Not_found else g.csr_wgt.(k)

let find_edge g u v =
  let k = slot g u v in
  if k < 0 then None else Some (Edge.make u v g.csr_wgt.(k))

(* ------------------------------------------------------------------ *)
(* Incremental edits (the service layer's churn path, see
   lib/service/topology.mli). Every edit computes only the rows it
   touches, boxed, and copies every other row verbatim into a fresh CSR
   in one linear pass (a reweight only copies the weights) — no
   re-sorting, no duplicate check over the untouched edges — and is
   pinned byte-identical to [of_edges] from scratch on the same edge set
   by a qcheck property (test_graph). Node edits also renumber: a join
   appends a row, a leave moves the swap-renamed row into the hole. *)

let check_endpoint ~what g x =
  if x < 0 || x >= g.n then
    invalid_arg
      (Printf.sprintf "Graph.%s: endpoint %d out of range [0,%d)" what x g.n)

(* Fresh row with [(u, w)] inserted at its sorted (by neighbor) slot. *)
let insert_sorted row u w =
  let len = Array.length row in
  let fresh = Array.make (len + 1) (u, w) in
  let i = ref 0 in
  while !i < len && fst row.(!i) < u do
    fresh.(!i) <- row.(!i);
    incr i
  done;
  Array.blit row !i fresh (!i + 1) (len - !i);
  fresh

(* Fresh row with neighbor [u] dropped. *)
let remove_sorted row u =
  let len = Array.length row in
  let fresh = Array.make (len - 1) (0, 0) in
  let j = ref 0 in
  for i = 0 to len - 1 do
    if fst row.(i) <> u then begin
      fresh.(!j) <- row.(i);
      incr j
    end
  done;
  fresh

(* Fresh row with its final entry — neighbor [n-1], the highest id, so
   always last — renamed to [v] and moved to its sorted slot. *)
let rename_last row v =
  let len = Array.length row in
  let fresh = Array.make len (v, snd row.(len - 1)) in
  let i = ref 0 in
  while !i < len - 1 && fst row.(!i) < v do
    fresh.(!i) <- row.(!i);
    incr i
  done;
  Array.blit row !i fresh (!i + 1) (len - 1 - !i);
  fresh

(* The edited graph on [n] nodes with edge array [edges]: row [x] is
   the row [touched] lists for [x], if any (each [x] at most once), else
   a verbatim copy of [g]'s row [src x], shared with [g] if boxed
   there. *)
let patched g ~n ~src ~touched ~edges ~total_w =
  let m2 = 2 * Array.length edges in
  let row = Array.make (n + 1) 0 and rows = Array.make n [||] in
  let col = Array.make (max 1 m2) 0 and wgt = Array.make (max 1 m2) 0 in
  let pending = ref (List.sort (fun (x, _) (y, _) -> Int.compare x y) touched) in
  for x = 0 to n - 1 do
    let base = row.(x) in
    match !pending with
    | (y, r) :: rest when y = x ->
        pending := rest;
        Array.iteri
          (fun i (c, w) ->
            col.(base + i) <- c;
            wgt.(base + i) <- w)
          r;
        rows.(x) <- r;
        row.(x + 1) <- base + Array.length r
    | _ ->
        let s = src x in
        let d = degree g s in
        Array.blit g.csr_col g.csr_row.(s) col base d;
        Array.blit g.csr_wgt g.csr_row.(s) wgt base d;
        rows.(x) <- g.rows.(s);
        row.(x + 1) <- base + d
  done;
  { n; edges; csr_row = row; csr_col = col; csr_wgt = wgt; rows; total_w }

let add_edge g u v w =
  check_endpoint ~what:"add_edge" g u;
  check_endpoint ~what:"add_edge" g v;
  let e = Edge.make u v w in
  if has_edge g e.Edge.u e.Edge.v then
    invalid_arg
      (Printf.sprintf "Graph.add_edge: duplicate edge {%d,%d}" e.Edge.u e.Edge.v);
  patched g ~n:g.n ~src:Fun.id
    ~touched:
      [
        (e.Edge.u, insert_sorted (neighbors g e.Edge.u) e.Edge.v w);
        (e.Edge.v, insert_sorted (neighbors g e.Edge.v) e.Edge.u w);
      ]
    ~edges:(Array.append g.edges [| e |])
    ~total_w:(g.total_w + w)

let remove_edge g u v =
  check_endpoint ~what:"remove_edge" g u;
  check_endpoint ~what:"remove_edge" g v;
  if not (has_edge g u v) then
    invalid_arg (Printf.sprintf "Graph.remove_edge: edge {%d,%d} absent" u v);
  let e = Edge.make u v (weight g u v) in
  let touched =
    [
      (e.Edge.u, remove_sorted (neighbors g e.Edge.u) e.Edge.v);
      (e.Edge.v, remove_sorted (neighbors g e.Edge.v) e.Edge.u);
    ]
  in
  let edges = Array.make (Array.length g.edges - 1) e and j = ref 0 in
  Array.iter
    (fun x ->
      if not (Edge.equal x e) then begin
        edges.(!j) <- x;
        incr j
      end)
    g.edges;
  patched g ~n:g.n ~src:Fun.id ~touched ~edges ~total_w:(g.total_w - e.Edge.w)

let reweight_edge g u v w =
  check_endpoint ~what:"reweight_edge" g u;
  check_endpoint ~what:"reweight_edge" g v;
  if not (has_edge g u v) then
    invalid_arg (Printf.sprintf "Graph.reweight_edge: edge {%d,%d} absent" u v);
  let old_w = weight g u v in
  let e_old = Edge.make u v old_w and e = Edge.make u v w in
  let edges = Array.map (fun x -> if Edge.equal x e_old then e else x) g.edges in
  (* The CSR shape is unchanged: share [csr_row]/[csr_col] (never
     mutated) and copy only the weights — at n = 10⁵ that halves what
     a reweight allocates, and with it the major-GC work it paces. The
     two touched rows are re-boxed on demand. *)
  let csr_wgt = Array.copy g.csr_wgt in
  csr_wgt.(slot g u v) <- w;
  csr_wgt.(slot g v u) <- w;
  let rows = Array.copy g.rows in
  rows.(u) <- [||];
  rows.(v) <- [||];
  { g with edges; csr_wgt; rows; total_w = g.total_w - old_w + w }

let add_node g anchors =
  if anchors = [] then
    invalid_arg "Graph.add_node: at least one anchor edge required";
  let seen = Hashtbl.create 4 in
  List.iter
    (fun (a, _) ->
      check_endpoint ~what:"add_node" g a;
      if Hashtbl.mem seen a then
        invalid_arg (Printf.sprintf "Graph.add_node: duplicate anchor %d" a);
      Hashtbl.add seen a ())
    anchors;
  (* The fresh id [g.n] is the largest, so it goes last in every anchor
     row; its own row is the anchors sorted by neighbor. *)
  let id = g.n in
  let touched =
    (id, Array.of_list (List.sort compare anchors))
    :: List.map (fun (a, w) -> (a, Array.append (neighbors g a) [| (id, w) |])) anchors
  in
  let added = Array.of_list (List.map (fun (a, w) -> Edge.make a id w) anchors) in
  let total_w = List.fold_left (fun acc (_, w) -> acc + w) g.total_w anchors in
  patched g ~n:(id + 1) ~src:Fun.id ~touched ~edges:(Array.append g.edges added) ~total_w

let remove_node g v =
  check_endpoint ~what:"remove_node" g v;
  if g.n = 1 then invalid_arg "Graph.remove_node: cannot remove the last node";
  (* Swap-remove: the highest id takes the vacated slot, keeping ids
     contiguous; edges incident to [v] disappear with it. *)
  let last = g.n - 1 in
  let touched = Hashtbl.create 16 in
  let current x = match Hashtbl.find_opt touched x with Some r -> r | None -> neighbors g x in
  Array.iter
    (fun (x, _) -> if x <> last then Hashtbl.replace touched x (remove_sorted (current x) v))
    (neighbors g v);
  if v <> last then begin
    let moved = neighbors g last in
    Hashtbl.replace touched v (if has_edge g v last then remove_sorted moved v else moved);
    Array.iter
      (fun (y, _) -> if y <> v then Hashtbl.replace touched y (rename_last (current y) v))
      moved
  end;
  let m' = Array.length g.edges - degree g v in
  let edges = if m' = 0 then [||] else Array.make m' g.edges.(0) in
  let j = ref 0 in
  Array.iter
    (fun (e : Edge.t) ->
      if not (Edge.mem e v) then begin
        edges.(!j) <- (if e.v = last then Edge.make e.u v e.w else e);
        incr j
      end)
    g.edges;
  let total_w = Array.fold_left (fun acc (_, w) -> acc - w) g.total_w (neighbors g v) in
  patched g ~n:last
    ~src:(fun x -> if x = v then last else x)
    ~touched:(Hashtbl.fold (fun x r acc -> (x, r) :: acc) touched [])
    ~edges ~total_w

let fold_edges f init g = Array.fold_left (fun acc e -> f e acc) init g.edges
let iter_edges f g = Array.iter f g.edges
let total_weight g = g.total_w

let distinct_weights g =
  let tbl = Hashtbl.create (m g) in
  try
    iter_edges
      (fun e ->
        if Hashtbl.mem tbl e.Edge.w then raise Exit
        else Hashtbl.add tbl e.Edge.w ())
      g;
    true
  with Exit -> false

let pp ppf g =
  Format.fprintf ppf "@[<v>graph n=%d m=%d@," g.n (m g);
  iter_edges (fun e -> Format.fprintf ppf "  %a@," Edge.pp e) g;
  Format.fprintf ppf "@]"
