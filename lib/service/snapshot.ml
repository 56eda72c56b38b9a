(* [St_layer]'s 31-bit signed pair encoding, restated so that the climb
   below inlines it (dune's default profile compiles each module
   opaquely, and this library does not link the builders): the low field
   is stored biased by 2^30, so a lane orders like its pair,
   lexicographically. *)
let half = 0x4000_0000
let pair hi lo = (hi lsl 31) lor (lo + half)
let hi lane = lane asr 31
let lo lane = (lane land 0x7FFF_FFFF) - half

(* One committed buffer, two arrays over the first [n] nodes:
   - [climb.(v)]: the pair (depth of head, parent of head) of [v]'s
     heavy path, [(0, -1)] on a root's path — a climb step's whole
     read, one word per node so that the array a climb walks stays
     cache-resident at large n;
   - [fac.(4v .. 4v+3)]: [v]'s facet record, every other read —
     [(pre, post)], the DFS interval (the Interval_labels facet);
     [(root, depth)], the tree root reached from v and hops to it; the
     committed parent link verbatim; and [(head, degree)], the
     heavy-path head (the Nca_labels facet) and the tree degree
     (children + valid parent).
   Nodes whose parent chain never reaches a root carry [-1] in every
   label field; their parent and degree stay exact. *)
type buf = { mutable n : int; climb : int array; fac : int array }

let alloc cap = { n = 0; climb = Array.make cap (-1); fac = Array.make (4 * cap) (-1) }

(* Rebuild scratch, one set per store: only the back buffer is ever
   being rebuilt. *)
type scratch = {
  size : int array;
  heavy : int array;
  child_head : int array;
  child_next : int array;
  stack : int array;
  cursor : int array;
  order : int array;
}

let alloc_scratch cap =
  let a () = Array.make cap 0 in
  {
    size = a ();
    heavy = a ();
    child_head = a ();
    child_next = a ();
    stack = a ();
    cursor = a ();
    order = a ();
  }

(* Capacity doubling from [cap] until [n] fits. *)
let grown cap n =
  let c = ref (max 16 cap) in
  while !c < n do
    c := !c * 2
  done;
  !c

(* Flatten an arbitrary parent array into [b]. A link is a tree edge
   when it names a distinct in-range node; anything else ([-1], out of
   range, self) marks a root candidate. Nodes whose parent chain never
   reaches a root — members of parent cycles and their hangers-on — keep
   [-1] in every label field, which is exactly the bounded-parent-chase
   semantics the service's reads had before the snapshot existed (a
   chase that cycles answers root = -1). Every label field lies in
   [-1, n), so it fits a pair field for [n < 2^30]. *)
let rebuild b s parents =
  let n = Array.length parents in
  b.n <- n;
  let climb = b.climb and fac = b.fac and none = pair (-1) (-1) in
  Array.fill climb 0 n none;
  for v = 0 to n - 1 do
    fac.(4 * v) <- none;
    fac.((4 * v) + 1) <- none;
    fac.((4 * v) + 2) <- parents.(v);
    fac.((4 * v) + 3) <- pair (-1) 0
  done;
  Array.fill s.size 0 n 1;
  Array.fill s.heavy 0 n (-1);
  Array.fill s.child_head 0 n (-1);
  let link v =
    let p = parents.(v) in
    p >= 0 && p < n && p <> v
  in
  (* Children lists, built backwards so traversal is increasing order
     (the convention of [Tree.children] and the labels provers). A tree
     edge adds 1 to the degree, the low field of word 3, at both ends. *)
  for v = n - 1 downto 0 do
    if link v then begin
      let p = parents.(v) in
      fac.((4 * v) + 3) <- fac.((4 * v) + 3) + 1;
      fac.((4 * p) + 3) <- fac.((4 * p) + 3) + 1;
      s.child_next.(v) <- s.child_head.(p);
      s.child_head.(p) <- v
    end
  done;
  (* Iterative DFS from every root candidate: pre/post counters span the
     whole forest (ancestry additionally checks root equality), depth and
     root tags propagate down, sizes and heavy children accumulate on the
     way back up. [pre] is written on entry with a placeholder [post]
     that the exit overwrites. *)
  let pre_clock = ref 0 and post_clock = ref 0 and sp = ref 0 in
  let enter v r d =
    fac.(4 * v) <- pair !pre_clock (-1);
    fac.((4 * v) + 1) <- pair r d;
    s.order.(!pre_clock) <- v;
    incr pre_clock;
    s.stack.(!sp) <- v;
    s.cursor.(!sp) <- s.child_head.(v);
    incr sp
  in
  for r = 0 to n - 1 do
    if not (link r) then begin
      enter r r 0;
      while !sp > 0 do
        let v = s.stack.(!sp - 1) in
        let c = s.cursor.(!sp - 1) in
        if c < 0 then begin
          (* all children done: close the interval, settle heavy child *)
          decr sp;
          fac.(4 * v) <- pair (hi fac.(4 * v)) !post_clock;
          incr post_clock;
          let ch = ref s.child_head.(v) and best = ref (-1) in
          while !ch >= 0 do
            s.size.(v) <- s.size.(v) + s.size.(!ch);
            if !best < 0 || s.size.(!ch) > s.size.(!best) then best := !ch;
            ch := s.child_next.(!ch)
          done;
          s.heavy.(v) <- !best
        end
        else begin
          s.cursor.(!sp - 1) <- s.child_next.(c);
          enter c r (lo fac.((4 * v) + 1) + 1)
        end
      done
    end
  done;
  (* Heavy-path heads in one pre-order sweep: parents settle before
     children, mirroring [Heavy_path.compute]. A heavy child inherits
     its parent's head and climb word; a light child heads a path that
     climbs to its parent. *)
  for i = 0 to !pre_clock - 1 do
    let v = s.order.(i) in
    let p = parents.(v) in
    if link v && s.heavy.(p) = v then begin
      climb.(v) <- climb.(p);
      fac.((4 * v) + 3) <- pair (hi fac.((4 * p) + 3)) (lo fac.((4 * v) + 3))
    end
    else begin
      climb.(v) <- (if link v then pair (lo fac.((4 * v) + 1)) p else pair 0 (-1));
      fac.((4 * v) + 3) <- pair v (lo fac.((4 * v) + 3))
    end
  done

(* ------------------------------------------------------------------ *)
(* The double-buffered store: reads always hit [front]; [commit]
   rebuilds [back] from the given parents and swaps, so a reader racing
   a commit keeps seeing the previous committed snapshot until the
   whole rebuild is done. *)

type t = {
  mutable front : buf;
  mutable back : buf;
  mutable scratch : scratch;
  mutable ready : bool;
}

let create () =
  { front = alloc 16; back = alloc 16; scratch = alloc_scratch 16; ready = false }

let commit t parents =
  let n = Array.length parents in
  if n >= half then invalid_arg "Snapshot.commit: n >= 2^30";
  let cap = Array.length t.back.climb in
  if n > cap then t.back <- alloc (grown cap n);
  let cap = Array.length t.scratch.size in
  if n > cap then t.scratch <- alloc_scratch (grown cap n);
  rebuild t.back t.scratch parents;
  let f = t.front in
  t.front <- t.back;
  t.back <- f;
  t.ready <- true

let ready t = t.ready
let n t = t.front.n

(* O(1) facet reads. *)
let parent t v = t.front.fac.((4 * v) + 2)
let root t v = hi t.front.fac.((4 * v) + 1)
let degree t v = lo t.front.fac.((4 * v) + 3)
let depth_of fac v = lo fac.((4 * v) + 1)
let depth t v = depth_of t.front.fac v
let head t v = hi t.front.fac.((4 * v) + 3)

(* Ancestry through the interval labels, the [Interval_labels] test on
   the decoded (pre, post) pairs, after the same-tree guard. *)
let ancestor fac a v =
  let ia = fac.(4 * a) and iv = fac.(4 * v) in
  hi ia <= hi iv && lo iv <= lo ia

let same_tree fac u v =
  let r = hi fac.((4 * u) + 1) in
  r >= 0 && r = hi fac.((4 * v) + 1)

let is_ancestor t a v =
  let fac = t.front.fac in
  same_tree fac a v && ancestor fac a v

(* NCA of two nodes of one tree by heavy-path head climbing, the flat
   form of [Nca_labels.nca]. While the two climb words differ, the
   larger retreats to its parent of head: a deeper head first, and on a
   depth tie the two heads are distinct and at one depth, so the NCA
   lies above both and either side may retreat. Each step reads one
   climb word and crosses one light edge, so O(log n) steps. Equal
   words mean one parent of head: on one head, the shallower node is
   the NCA; on two heads, both are light children of that parent,
   which is the NCA. *)
let climb b u v =
  let climb = b.climb in
  let u = ref u and v = ref v in
  let cu = ref climb.(!u) and cv = ref climb.(!v) in
  while !cu <> !cv do
    if !cu > !cv then begin
      u := lo !cu;
      cu := climb.(!u)
    end
    else begin
      v := lo !cv;
      cv := climb.(!v)
    end
  done;
  let fac = b.fac in
  if hi fac.((4 * !u) + 3) <> hi fac.((4 * !v) + 3) then lo !cu
  else if depth_of fac !u <= depth_of fac !v then !u
  else !v

let nca t u v = if same_tree t.front.fac u v then climb t.front u v else -1

(* The tree-path length through [w], the NCA of [u] and [v]. *)
let route fac u v w = depth_of fac u + depth_of fac v - (2 * depth_of fac w)

let route_length t u v =
  let b = t.front in
  if same_tree b.fac u v then route b.fac u v (climb b u v) else -1

(* ------------------------------------------------------------------ *)

type answer = {
  a_parent : int;
  a_root : int;
  a_degree : int;
  a_ancestor : bool;
  a_nca : int;
  a_route : int;
}

(* Every facet from one climb: the route derives from the NCA, and
   [v]'s parent, root and degree come from its facet record. *)
let answer t ~v ~u =
  let b = t.front in
  let fac = b.fac in
  let same = same_tree fac u v in
  let w = if same then climb b u v else -1 in
  {
    a_parent = fac.((4 * v) + 2);
    a_root = hi fac.((4 * v) + 1);
    a_degree = lo fac.((4 * v) + 3);
    a_ancestor = same && ancestor fac u v;
    a_nca = w;
    a_route = (if same then route fac u v w else -1);
  }
