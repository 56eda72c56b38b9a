type t = {
  root : int;
  parent : int array;
  children : int array array;
  depth : int array;
  size : int array;
  pre : int array;
  post : int array;
}

let n t = Array.length t.parent
let root t = t.root
let parent t v = t.parent.(v)
let parents t = Array.copy t.parent
let children t v = t.children.(v)
let depth t v = t.depth.(v)
let size t v = t.size.(v)
let pre t v = t.pre.(v)
let post t v = t.post.(v)

let degree t v =
  Array.length t.children.(v) + if t.parent.(v) = -1 then 0 else 1

let max_degree t =
  let best = ref 0 in
  for v = 0 to n t - 1 do
    if degree t v > !best then best := degree t v
  done;
  !best

let check_parents ~root parent =
  let n = Array.length parent in
  root >= 0 && n > 0 && root < n
  && parent.(root) = -1
  &&
  (* Every non-root chain must reach the root without revisiting a node.
     [mark]: 0 = not yet seen, 1 = known to reach the root, 2 = on the
     chain being walked (meeting a 2 again is a cycle). Each node is
     walked once, with no allocation beyond [mark]. *)
  let mark = Bytes.make n '\000' in
  Bytes.set mark root '\001';
  let ok = ref true and v = ref 0 in
  while !ok && !v < n do
    let x = ref !v in
    while !ok && Bytes.get mark !x = '\000' do
      Bytes.set mark !x '\002';
      let p = parent.(!x) in
      if p < 0 || p >= n then ok := false else x := p
    done;
    if !ok && Bytes.get mark !x = '\002' then ok := false;
    if !ok then begin
      let y = ref !v in
      while Bytes.get mark !y = '\002' do
        Bytes.set mark !y '\001';
        y := parent.(!y)
      done
    end;
    incr v
  done;
  !ok

let build ~root parent =
  let n = Array.length parent in
  let deg = Array.make n 0 in
  Array.iteri (fun v p -> if v <> root then deg.(p) <- deg.(p) + 1) parent;
  let children = Array.init n (fun v -> Array.make deg.(v) 0) in
  let fill = Array.make n 0 in
  for v = 0 to n - 1 do
    if v <> root then begin
      let p = parent.(v) in
      children.(p).(fill.(p)) <- v;
      fill.(p) <- fill.(p) + 1
    end
  done;
  Array.iter (fun a -> Array.sort compare a) children;
  let depth = Array.make n 0
  and size = Array.make n 1
  and pre = Array.make n 0
  and post = Array.make n 0 in
  let pre_clock = ref 0 and post_clock = ref 0 in
  let stack = Stack.create () in
  pre.(root) <- 0;
  incr pre_clock;
  Stack.push (root, ref 0) stack;
  while not (Stack.is_empty stack) do
    let u, next = Stack.top stack in
    if !next >= Array.length children.(u) then begin
      ignore (Stack.pop stack);
      post.(u) <- !post_clock;
      incr post_clock;
      if u <> root then size.(parent.(u)) <- size.(parent.(u)) + size.(u)
    end
    else begin
      let c = children.(u).(!next) in
      incr next;
      depth.(c) <- depth.(u) + 1;
      pre.(c) <- !pre_clock;
      incr pre_clock;
      Stack.push (c, ref 0) stack
    end
  done;
  { root; parent = Array.copy parent; children; depth; size; pre; post }

let of_parents ~root parent =
  if not (check_parents ~root parent) then
    invalid_arg "Tree.of_parents: not a spanning tree";
  build ~root parent

let of_graph_bfs g ~root =
  let parent = Traversal.bfs_tree g ~src:root in
  if Array.exists (fun p -> p = -2) parent then
    invalid_arg "Tree.of_graph_bfs: disconnected graph";
  build ~root parent

let mem_edge t u v = (u <> t.root && t.parent.(u) = v) || (v <> t.root && t.parent.(v) = u)

let is_ancestor t a v = t.pre.(a) <= t.pre.(v) && t.post.(v) <= t.post.(a)

let nca t u v =
  (* Walk the deeper node up until depths match, then walk both. *)
  let rec lift x d target = if d > target then lift t.parent.(x) (d - 1) target else x in
  let du = t.depth.(u) and dv = t.depth.(v) in
  let u = lift u du (min du dv) and v = lift v dv (min du dv) in
  let rec go u v = if u = v then u else go t.parent.(u) t.parent.(v) in
  go u v

let path_to_root t v =
  let rec go x acc = if x = -1 then List.rev acc else go t.parent.(x) (x :: acc) in
  go v []

let tree_path t u v =
  let w = nca t u v in
  let rec up x acc = if x = w then List.rev (x :: acc) else up t.parent.(x) (x :: acc) in
  let u_side = up u [] (* u .. w *) in
  let rec down x acc = if x = w then acc else down t.parent.(x) (x :: acc) in
  u_side @ down v []

let fundamental_cycle t ~e:(x, y) =
  if x = y then invalid_arg "Tree.fundamental_cycle: self-loop";
  if mem_edge t x y then invalid_arg "Tree.fundamental_cycle: tree edge";
  tree_path t x y

let in_graph t g =
  let rec from v =
    v >= n t || ((v = t.root || Graph.has_edge g v t.parent.(v)) && from (v + 1))
  in
  from 0

let tree_edges t g =
  let acc = ref [] in
  for v = 0 to n t - 1 do
    if v <> t.root then
      acc := Graph.Edge.make v t.parent.(v) (Graph.weight g v t.parent.(v)) :: !acc
  done;
  !acc

let weight t g = List.fold_left (fun acc e -> acc + e.Graph.Edge.w) 0 (tree_edges t g)

let swap t ~add:(x, y) ~remove:(a, b) =
  if not (mem_edge t a b) then invalid_arg "Tree.swap: remove is not a tree edge";
  if mem_edge t x y || x = y then invalid_arg "Tree.swap: add is a tree edge";
  (* [child] is the lower endpoint of the removed edge; its subtree is the
     detached component. *)
  let child = if t.parent.(a) = b then a else b in
  let in_detached v = is_ancestor t child v in
  let c_in, c_out =
    match (in_detached x, in_detached y) with
    | true, false -> (x, y)
    | false, true -> (y, x)
    | _ -> invalid_arg "Tree.swap: added edge does not cross the cut"
  in
  let parent = Array.copy t.parent in
  (* Reverse the parent chain from [c_in] up to [child], then hook [c_in]
     onto [c_out]. *)
  let rec reverse v prev =
    let p = t.parent.(v) in
    parent.(v) <- prev;
    if v <> child then reverse p v
  in
  reverse c_in c_out;
  build ~root:t.root parent

let same_edges t1 t2 =
  n t1 = n t2
  &&
  let ok = ref true in
  for v = 0 to n t1 - 1 do
    if v <> t1.root && not (mem_edge t2 v t1.parent.(v)) then ok := false
  done;
  !ok

let pp ppf t =
  Format.fprintf ppf "@[<v>tree root=%d@," t.root;
  Array.iteri
    (fun v p -> if p <> -1 then Format.fprintf ppf "  %d -> %d@," v p)
    t.parent;
  Format.fprintf ppf "@]"
