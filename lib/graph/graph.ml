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
  adj : (int * int) array array; (* (neighbor, weight), sorted by neighbor *)
  (* CSR mirror of [adj]: node v's neighbors are col.[row.(v) .. row.(v+1)-1]
     (increasing), weights aligned in wgt. Three flat arrays instead of n
     boxed pair-arrays, so a neighbor scan is one contiguous read. *)
  csr_row : int array;
  csr_col : int array;
  csr_wgt : int array;
  (* Precomputed at construction: [total_weight] is on the per-node
     hot path of spt's adversarial initialization (its infinity bound),
     and summing m edges per query made that O(n·m). *)
  total_w : int;
}

let csr_of_adj n adj =
  let row = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    row.(v + 1) <- row.(v) + Array.length adj.(v)
  done;
  let m2 = row.(n) in
  let col = Array.make (max 1 m2) 0 and wgt = Array.make (max 1 m2) 0 in
  for v = 0 to n - 1 do
    let base = row.(v) in
    Array.iteri
      (fun i (u, w) ->
        col.(base + i) <- u;
        wgt.(base + i) <- w)
      adj.(v)
  done;
  (row, col, wgt)

let of_edge_list n es =
  if n <= 0 then invalid_arg "Graph.of_edge_list: n must be positive";
  let seen = Hashtbl.create (List.length es) in
  List.iter
    (fun (e : Edge.t) ->
      if e.u < 0 || e.v >= n then
        invalid_arg "Graph.of_edge_list: endpoint out of range";
      if Hashtbl.mem seen (e.u, e.v) then
        invalid_arg "Graph.of_edge_list: duplicate edge";
      Hashtbl.add seen (e.u, e.v) ())
    es;
  let deg = Array.make n 0 in
  List.iter
    (fun (e : Edge.t) ->
      deg.(e.u) <- deg.(e.u) + 1;
      deg.(e.v) <- deg.(e.v) + 1)
    es;
  let adj = Array.init n (fun v -> Array.make deg.(v) (0, 0)) in
  let fill = Array.make n 0 in
  List.iter
    (fun (e : Edge.t) ->
      adj.(e.u).(fill.(e.u)) <- (e.v, e.w);
      fill.(e.u) <- fill.(e.u) + 1;
      adj.(e.v).(fill.(e.v)) <- (e.u, e.w);
      fill.(e.v) <- fill.(e.v) + 1)
    es;
  Array.iter (fun a -> Array.sort compare a) adj;
  let csr_row, csr_col, csr_wgt = csr_of_adj n adj in
  let total_w = List.fold_left (fun acc (e : Edge.t) -> acc + e.w) 0 es in
  { n; edges = Array.of_list es; adj; csr_row; csr_col; csr_wgt; total_w }

let of_edges n es =
  of_edge_list n (List.map (fun (u, v, w) -> Edge.make u v w) es)

let n g = g.n
let m g = Array.length g.edges
let csr_row g = g.csr_row
let csr_col g = g.csr_col
let csr_wgt g = g.csr_wgt
let edges g = Array.copy g.edges
let neighbors g v = g.adj.(v)
let degree g v = Array.length g.adj.(v)

let max_degree g =
  let best = ref 0 in
  for v = 0 to g.n - 1 do
    if degree g v > !best then best := degree g v
  done;
  !best

(* Binary search in the sorted adjacency row of [u]. *)
let lookup g u v =
  let row = g.adj.(u) in
  let rec go lo hi =
    if lo >= hi then None
    else
      let mid = (lo + hi) / 2 in
      let x, w = row.(mid) in
      if x = v then Some w else if x < v then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length row)

let has_edge g u v = lookup g u v <> None

let weight g u v =
  match lookup g u v with Some w -> w | None -> raise Not_found

let find_edge g u v =
  match lookup g u v with Some w -> Some (Edge.make u v w) | None -> None

(* ------------------------------------------------------------------ *)
(* Incremental edits (the service layer's churn path, see
   lib/service/topology.mli). Every edit patches only the adjacency rows
   it touches and rebuilds the flat CSR mirror with one linear pass (a
   reweight only copies the weights) — no re-sorting, no
   duplicate-detection hash pass — and is pinned
   byte-identical to [of_edges] from scratch on the same edge set by a
   qcheck property (test_graph). Node edits also resize the row array:
   a join appends a row, a leave moves the swap-renamed row into the
   hole. *)

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

let patched ~n ~adj ~edges ~total_w =
  let csr_row, csr_col, csr_wgt = csr_of_adj n adj in
  { n; edges; adj; csr_row; csr_col; csr_wgt; total_w }

let add_edge g u v w =
  check_endpoint ~what:"add_edge" g u;
  check_endpoint ~what:"add_edge" g v;
  let e = Edge.make u v w in
  if has_edge g e.Edge.u e.Edge.v then
    invalid_arg
      (Printf.sprintf "Graph.add_edge: duplicate edge {%d,%d}" e.Edge.u e.Edge.v);
  let adj = Array.copy g.adj in
  adj.(e.Edge.u) <- insert_sorted adj.(e.Edge.u) e.Edge.v w;
  adj.(e.Edge.v) <- insert_sorted adj.(e.Edge.v) e.Edge.u w;
  patched ~n:g.n ~adj ~edges:(Array.append g.edges [| e |]) ~total_w:(g.total_w + w)

let remove_edge g u v =
  check_endpoint ~what:"remove_edge" g u;
  check_endpoint ~what:"remove_edge" g v;
  match lookup g u v with
  | None -> invalid_arg (Printf.sprintf "Graph.remove_edge: edge {%d,%d} absent" u v)
  | Some w ->
      let e = Edge.make u v w in
      let adj = Array.copy g.adj in
      adj.(e.Edge.u) <- remove_sorted adj.(e.Edge.u) e.Edge.v;
      adj.(e.Edge.v) <- remove_sorted adj.(e.Edge.v) e.Edge.u;
      let edges =
        Array.of_list
          (List.filter (fun x -> not (Edge.equal x e)) (Array.to_list g.edges))
      in
      patched ~n:g.n ~adj ~edges ~total_w:(g.total_w - w)

let reweight_edge g u v w =
  check_endpoint ~what:"reweight_edge" g u;
  check_endpoint ~what:"reweight_edge" g v;
  match lookup g u v with
  | None ->
      invalid_arg (Printf.sprintf "Graph.reweight_edge: edge {%d,%d} absent" u v)
  | Some old_w ->
      let e_old = Edge.make u v old_w and e = Edge.make u v w in
      let replace row x =
        let fresh = Array.copy row in
        Array.iteri (fun i (y, _) -> if y = x then fresh.(i) <- (x, w)) row;
        fresh
      in
      let adj = Array.copy g.adj in
      adj.(e.Edge.u) <- replace adj.(e.Edge.u) e.Edge.v;
      adj.(e.Edge.v) <- replace adj.(e.Edge.v) e.Edge.u;
      let edges = Array.map (fun x -> if Edge.equal x e_old then e else x) g.edges in
      (* The CSR shape is unchanged: share [csr_row]/[csr_col] (never
         mutated) and copy only the weights — at n = 10⁵ that halves what
         a reweight allocates, and with it the major-GC work it paces. *)
      let csr_wgt = Array.copy g.csr_wgt in
      let set a b =
        for i = g.csr_row.(a) to g.csr_row.(a + 1) - 1 do
          if g.csr_col.(i) = b then csr_wgt.(i) <- w
        done
      in
      set u v;
      set v u;
      { g with edges; adj; csr_wgt; total_w = g.total_w - old_w + w }

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
  let adj = Array.append g.adj [| Array.of_list (List.sort compare anchors) |] in
  List.iter (fun (a, w) -> adj.(a) <- Array.append adj.(a) [| (id, w) |]) anchors;
  let added = Array.of_list (List.map (fun (a, w) -> Edge.make a id w) anchors) in
  let total_w = List.fold_left (fun acc (_, w) -> acc + w) g.total_w anchors in
  patched ~n:(id + 1) ~adj ~edges:(Array.append g.edges added) ~total_w

let remove_node g v =
  check_endpoint ~what:"remove_node" g v;
  if g.n = 1 then invalid_arg "Graph.remove_node: cannot remove the last node";
  (* Swap-remove: the highest id takes the vacated slot, keeping ids
     contiguous; edges incident to [v] disappear with it. *)
  let last = g.n - 1 in
  let adj = Array.sub g.adj 0 last in
  Array.iter (fun (x, _) -> if x <> last then adj.(x) <- remove_sorted adj.(x) v) g.adj.(v);
  if v <> last then begin
    let moved = g.adj.(last) in
    adj.(v) <- (if has_edge g v last then remove_sorted moved v else moved);
    Array.iter (fun (y, _) -> if y <> v then adj.(y) <- rename_last adj.(y) v) moved
  end;
  let m' = Array.length g.edges - Array.length g.adj.(v) in
  let edges = if m' = 0 then [||] else Array.make m' g.edges.(0) in
  let j = ref 0 in
  Array.iter
    (fun (e : Edge.t) ->
      if not (Edge.mem e v) then begin
        edges.(!j) <- (if e.v = last then Edge.make e.u v e.w else e);
        incr j
      end)
    g.edges;
  let total_w = Array.fold_left (fun acc (_, w) -> acc - w) g.total_w g.adj.(v) in
  patched ~n:last ~adj ~edges ~total_w

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
