(* [St_layer]'s 31-bit signed pair encoding, restated so that the climb
   below inlines it (dune's default profile compiles each module
   opaquely, and this library does not link the builders): the low field
   is stored biased by 2^30, so a lane orders like its pair,
   lexicographically. *)
let half = 0x4000_0000
let pair hi lo = (hi lsl 31) lor (lo + half)
let hi lane = lane asr 31
let lo lane = (lane land 0x7FFF_FFFF) - half

(* One committed buffer. Node [v]'s labels are the 4-word record
   [lab.(4v .. 4v+3)]:
   - [head]: heavy-path head (the Nca_labels facet);
   - [(depth of head, parent of head)]: a climb step's whole read;
   - [(pre, post)]: the DFS interval (the Interval_labels facet);
   - [(root, depth)]: tree root reached from v and hops to it.
   Nodes whose parent chain never reaches a root carry [-1] in every
   field. [parent] keeps the committed links verbatim and [deg] the tree
   degree (children + valid parent); only the first [n] nodes are
   meaningful. *)
type buf = { mutable n : int; parent : int array; deg : int array; lab : int array }

let alloc cap =
  {
    n = 0;
    parent = Array.make cap (-1);
    deg = Array.make cap 0;
    lab = Array.make (4 * cap) (-1);
  }

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
  Array.blit parents 0 b.parent 0 n;
  let lab = b.lab and none = pair (-1) (-1) in
  for v = 0 to n - 1 do
    lab.(4 * v) <- -1;
    lab.((4 * v) + 1) <- none;
    lab.((4 * v) + 2) <- none;
    lab.((4 * v) + 3) <- none
  done;
  Array.fill b.deg 0 n 0;
  Array.fill s.size 0 n 1;
  Array.fill s.heavy 0 n (-1);
  Array.fill s.child_head 0 n (-1);
  let link v =
    let p = parents.(v) in
    p >= 0 && p < n && p <> v
  in
  (* Children lists, built backwards so traversal is increasing order
     (the convention of [Tree.children] and the labels provers). *)
  for v = n - 1 downto 0 do
    if link v then begin
      let p = parents.(v) in
      b.deg.(v) <- b.deg.(v) + 1;
      b.deg.(p) <- b.deg.(p) + 1;
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
    lab.((4 * v) + 2) <- pair !pre_clock (-1);
    lab.((4 * v) + 3) <- pair r d;
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
          lab.((4 * v) + 2) <- pair (hi lab.((4 * v) + 2)) !post_clock;
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
          enter c r (lo lab.((4 * v) + 3) + 1)
        end
      done
    end
  done;
  (* Heavy-path heads in one pre-order sweep: parents settle before
     children, mirroring [Heavy_path.compute]. A head's record is
     complete before any node below it reads it. *)
  for i = 0 to !pre_clock - 1 do
    let v = s.order.(i) in
    if not (link v) then begin
      lab.(4 * v) <- v;
      lab.((4 * v) + 1) <- pair 0 (-1)
    end
    else begin
      let p = parents.(v) in
      if s.heavy.(p) = v then begin
        lab.(4 * v) <- lab.(4 * p);
        lab.((4 * v) + 1) <- lab.((4 * p) + 1)
      end
      else begin
        lab.(4 * v) <- v;
        lab.((4 * v) + 1) <- pair (lo lab.((4 * v) + 3)) p
      end
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

let create ?(cap = 16) () =
  let cap = max 1 cap in
  { front = alloc cap; back = alloc cap; scratch = alloc_scratch cap; ready = false }

let commit t parents =
  let n = Array.length parents in
  if n >= half then invalid_arg "Snapshot.commit: n >= 2^30";
  let cap = Array.length t.back.parent in
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
let parent t v = t.front.parent.(v)
let root t v = hi t.front.lab.((4 * v) + 3)
let degree t v = t.front.deg.(v)
let depth_of lab v = lo lab.((4 * v) + 3)
let depth t v = depth_of t.front.lab v
let head t v = t.front.lab.(4 * v)

(* Ancestry through the interval labels, the [Interval_labels] test on
   the decoded (pre, post) pairs, after the same-tree guard. *)
let ancestor lab a v =
  let ia = lab.((4 * a) + 2) and iv = lab.((4 * v) + 2) in
  hi ia <= hi iv && lo iv <= lo ia

let same_tree lab u v =
  let r = hi lab.((4 * u) + 3) in
  r >= 0 && r = hi lab.((4 * v) + 3)

let is_ancestor t a v =
  let lab = t.front.lab in
  same_tree lab a v && ancestor lab a v

(* NCA of two nodes of one tree by heavy-path head climbing, the flat
   form of [Nca_labels.nca]: while the two walks sit on different heavy
   paths, the one whose head is deeper retreats above its head. Each
   step reads one record, and at most one light edge per iteration on
   each side, so O(log n) iterations. Comparing the whole (depth of
   head, parent of head) lanes orders by head depth; on a tie the two
   heads are distinct and at one depth, so the NCA lies above both and
   either side may retreat. *)
let climb lab u v =
  let u = ref u and v = ref v in
  let hu = ref lab.(4 * !u) and hv = ref lab.(4 * !v) in
  let cu = ref lab.((4 * !u) + 1) and cv = ref lab.((4 * !v) + 1) in
  while !hu <> !hv do
    if !cu >= !cv then begin
      u := lo !cu;
      hu := lab.(4 * !u);
      cu := lab.((4 * !u) + 1)
    end
    else begin
      v := lo !cv;
      hv := lab.(4 * !v);
      cv := lab.((4 * !v) + 1)
    end
  done;
  if depth_of lab !u <= depth_of lab !v then !u else !v

let nca t u v =
  let lab = t.front.lab in
  if same_tree lab u v then climb lab u v else -1

(* The tree-path length through [w], the NCA of [u] and [v]. *)
let route lab u v w = depth_of lab u + depth_of lab v - (2 * depth_of lab w)

let route_length t u v =
  let lab = t.front.lab in
  if same_tree lab u v then route lab u v (climb lab u v) else -1

(* ------------------------------------------------------------------ *)

type answer = {
  a_parent : int;
  a_root : int;
  a_degree : int;
  a_ancestor : bool;
  a_nca : int;
  a_route : int;
}

(* Every facet from one climb: the route derives from the NCA. *)
let answer t ~v ~u =
  let b = t.front in
  let lab = b.lab in
  let same = same_tree lab u v in
  let w = if same then climb lab u v else -1 in
  {
    a_parent = b.parent.(v);
    a_root = hi lab.((4 * v) + 3);
    a_degree = b.deg.(v);
    a_ancestor = same && ancestor lab u v;
    a_nca = w;
    a_route = (if same then route lab u v w else -1);
  }
