(* All generators first build an unweighted edge set, then assign a random
   permutation of [1..m] as weights, so weights are always pairwise
   distinct. An edge set is two int arrays [us], [vs] (edge i joins
   [us.(i)] and [vs.(i)]); its order becomes the graph's edge order. *)

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let weigh st us vs =
  let m = Array.length us in
  let weights = Array.init m (fun i -> i + 1) in
  shuffle st weights;
  Array.init m (fun i -> Graph.Edge.make us.(i) vs.(i) weights.(i))

let of_pairs st n us vs = Graph.of_edge_array n (weigh st us vs)

let unzip pairs =
  let a = Array.of_list pairs in
  (Array.map fst a, Array.map snd a)

let of_pair_list st n pairs =
  let us, vs = unzip pairs in
  of_pairs st n us vs

(* Set of unordered pairs [{u,v}], keyed [min u v * n + max u v]: open
   addressing with linear probing over a table sized once for at most
   [cap] pairs (load <= 1/2), -1 marking a free slot. *)
module Pair_set = struct
  type t = { n : int; bits : int; slots : int array }

  let create ~n cap =
    let bits = ref 4 in
    while 1 lsl !bits < 2 * cap do
      incr bits
    done;
    { n; bits = !bits; slots = Array.make (1 lsl !bits) (-1) }

  (* [add s u v] inserts [{u,v}]; [false] if it was already there. *)
  let add s u v =
    let key = (min u v * s.n) + max u v in
    let mask = Array.length s.slots - 1 in
    let i = ref ((key * 0x2545F4914F6CDD1D) lsr (63 - s.bits)) in
    while s.slots.(!i) >= 0 && s.slots.(!i) <> key do
      i := (!i + 1) land mask
    done;
    s.slots.(!i) < 0
    && begin
         s.slots.(!i) <- key;
         true
       end
end

(* Stitch disconnected components together with random cross edges so the
   result is connected, as the paper assumes connected networks. The
   cross edges follow the given ones, the last drawn first. *)
let connect st n us vs =
  let k = Array.length us in
  let present = Pair_set.create ~n (k + n) in
  let uf = Union_find.create n in
  for i = 0 to k - 1 do
    ignore (Pair_set.add present us.(i) vs.(i));
    ignore (Union_find.union uf us.(i) vs.(i))
  done;
  (* One cross edge per component but 0's (and none when n = 0). *)
  let total = k + max 0 (Union_find.count uf - 1) in
  let us' = Array.make total 0 and vs' = Array.make total 0 in
  Array.blit us 0 us' 0 k;
  Array.blit vs 0 vs' 0 k;
  let reps = Array.init n (fun i -> i) in
  shuffle st reps;
  let next = ref total in
  Array.iter
    (fun v ->
      if not (Union_find.same uf 0 v) then begin
        (* Link [v]'s component to component of node 0 via a random node
           already connected to 0. *)
        let rec pick () =
          let u = Random.State.int st n in
          if Union_find.same uf 0 u && Pair_set.add present u v then u else pick ()
        in
        let u = pick () in
        ignore (Union_find.union uf u v);
        decr next;
        us'.(!next) <- u;
        vs'.(!next) <- v
      end)
    reps;
  (us', vs')

let gnp st ~n ~p =
  if n < 1 then invalid_arg "Generators.gnp: n < 1";
  let pairs = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Random.State.float st 1.0 < p then pairs := (u, v) :: !pairs
    done
  done;
  let us, vs = unzip !pairs in
  let us, vs = connect st n us vs in
  of_pairs st n us vs

(* Prüfer decode, linear version: [leaf] is always the smallest current
   leaf, the one a min-heap of leaves would pop. A node that just became
   a leaf is the smallest one iff it lies below the scan pointer [ptr]
   (every other leaf lies above it); otherwise [ptr] moves up to the
   next leaf. [ptr] itself is removed before it moves, so the degree of
   1 it keeps is never read again. The last edge joins the remaining
   leaf to n-1, which as the largest node is never the smallest leaf
   while two remain. Edges come out closing edge first, then the others
   last-first: the edge order every recorded network was built with. *)
let prufer_tree st n =
  if n = 1 then ([||], [||])
  else if n = 2 then ([| 0 |], [| 1 |])
  else begin
    let seq = Array.init (n - 2) (fun _ -> Random.State.int st n) in
    let deg = Array.make n 1 in
    Array.iter (fun x -> deg.(x) <- deg.(x) + 1) seq;
    let us = Array.make (n - 1) 0 and vs = Array.make (n - 1) 0 in
    let ptr = ref 0 in
    while deg.(!ptr) <> 1 do
      incr ptr
    done;
    let leaf = ref !ptr in
    Array.iteri
      (fun i x ->
        us.(n - 2 - i) <- !leaf;
        vs.(n - 2 - i) <- x;
        deg.(x) <- deg.(x) - 1;
        if deg.(x) = 1 && x < !ptr then leaf := x
        else begin
          incr ptr;
          while deg.(!ptr) <> 1 do
            incr ptr
          done;
          leaf := !ptr
        end)
      seq;
    us.(0) <- !leaf;
    vs.(0) <- n - 1;
    (us, vs)
  end

let random_tree st ~n =
  let us, vs = prufer_tree st n in
  of_pairs st n us vs

let random_connected st ~n ~m =
  let tree_us, tree_vs = prufer_tree st n in
  let target = max m (n - 1) in
  let max_edges = n * (n - 1) / 2 in
  let target = min target max_edges in
  let present = Pair_set.create ~n target in
  Array.iteri (fun i u -> ignore (Pair_set.add present u tree_vs.(i))) tree_us;
  (* The tree first, then the extra edges, the last drawn first. *)
  let k = Array.length tree_us in
  let us = Array.make target 0 and vs = Array.make target 0 in
  Array.blit tree_us 0 us 0 k;
  Array.blit tree_vs 0 vs 0 k;
  let next = ref target in
  while !next > k do
    let u = Random.State.int st n and v = Random.State.int st n in
    if u <> v && Pair_set.add present u v then begin
      decr next;
      us.(!next) <- u;
      vs.(!next) <- v
    end
  done;
  of_pairs st n us vs

let geometric st ~n ~radius =
  let xs = Array.init n (fun _ -> Random.State.float st 1.0) in
  let ys = Array.init n (fun _ -> Random.State.float st 1.0) in
  let r2 = radius *. radius in
  let pairs = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      let dx = xs.(u) -. xs.(v) and dy = ys.(u) -. ys.(v) in
      if (dx *. dx) +. (dy *. dy) <= r2 then pairs := (u, v) :: !pairs
    done
  done;
  let us, vs = unzip !pairs in
  let us, vs = connect st n us vs in
  of_pairs st n us vs

let grid st ~rows ~cols =
  let n = rows * cols in
  let id r c = (r * cols) + c in
  let pairs = ref [] in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      if c + 1 < cols then pairs := (id r c, id r (c + 1)) :: !pairs;
      if r + 1 < rows then pairs := (id r c, id (r + 1) c) :: !pairs
    done
  done;
  of_pair_list st n !pairs

let torus st ~rows ~cols =
  if rows < 3 || cols < 3 then invalid_arg "Generators.torus: needs >= 3x3";
  let n = rows * cols in
  let id r c = (r * cols) + c in
  let pairs = ref [] in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      pairs := (id r c, id r ((c + 1) mod cols)) :: !pairs;
      pairs := (id r c, id ((r + 1) mod rows) c) :: !pairs
    done
  done;
  of_pair_list st n !pairs

let ring st ~n =
  if n < 3 then invalid_arg "Generators.ring: n < 3";
  of_pairs st n (Array.init n (fun i -> i)) (Array.init n (fun i -> (i + 1) mod n))

let path st ~n =
  if n < 2 then invalid_arg "Generators.path: n < 2";
  of_pairs st n (Array.init (n - 1) (fun i -> i)) (Array.init (n - 1) (fun i -> i + 1))

let star st ~n =
  if n < 2 then invalid_arg "Generators.star: n < 2";
  of_pairs st n (Array.make (n - 1) 0) (Array.init (n - 1) (fun i -> i + 1))

let complete st ~n =
  let pairs = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      pairs := (u, v) :: !pairs
    done
  done;
  of_pair_list st n !pairs

let hypercube st ~dim =
  let n = 1 lsl dim in
  let pairs = ref [] in
  for u = 0 to n - 1 do
    for b = 0 to dim - 1 do
      let v = u lxor (1 lsl b) in
      if u < v then pairs := (u, v) :: !pairs
    done
  done;
  of_pair_list st n !pairs

let lollipop st ~clique ~tail =
  if clique < 2 then invalid_arg "Generators.lollipop: clique < 2";
  if tail < 0 then invalid_arg "Generators.lollipop: tail < 0";
  let n = clique + tail in
  let pairs = ref [] in
  for u = 0 to clique - 1 do
    for v = u + 1 to clique - 1 do
      pairs := (u, v) :: !pairs
    done
  done;
  for i = 0 to tail - 1 do
    let prev = if i = 0 then clique - 1 else clique + i - 1 in
    pairs := (prev, clique + i) :: !pairs
  done;
  of_pair_list st n !pairs

let caterpillar st ~spine ~legs =
  if spine < 1 then invalid_arg "Generators.caterpillar: spine < 1";
  let n = spine * (1 + legs) in
  let pairs = ref [] in
  for i = 0 to spine - 2 do
    pairs := (i, i + 1) :: !pairs
  done;
  for i = 0 to spine - 1 do
    for l = 0 to legs - 1 do
      pairs := (i, spine + (i * legs) + l) :: !pairs
    done
  done;
  of_pair_list st n !pairs

let barabasi_albert st ~n ~m0 =
  if m0 < 1 then invalid_arg "Generators.barabasi_albert: m0 < 1";
  if n < m0 + 1 then invalid_arg "Generators.barabasi_albert: n too small";
  (* Start from a star on m0+1 nodes; every later node attaches to m0
     distinct targets sampled by degree (via the endpoint-list trick).
     The endpoint list, newest first, is kept oldest first in [eps]: an
     edge {u,v} pushes v then u, and list index r is eps.(len-1-r). *)
  let pairs = ref [] in
  let eps = Array.make (2 * m0 * (n - m0)) 0 and len = ref 0 in
  let add u v =
    pairs := (u, v) :: !pairs;
    eps.(!len) <- v;
    eps.(!len + 1) <- u;
    len := !len + 2
  in
  for v = 1 to m0 do
    add 0 v
  done;
  for v = m0 + 1 to n - 1 do
    let len_v = !len in
    let chosen = Hashtbl.create m0 in
    let guard = ref 0 in
    while Hashtbl.length chosen < m0 && !guard < 100 * m0 do
      incr guard;
      let t = eps.(len_v - 1 - Random.State.int st len_v) in
      if t <> v && not (Hashtbl.mem chosen t) then Hashtbl.add chosen t ()
    done;
    (* Fallback: complete the attachment deterministically if sampling
       stalled (tiny graphs). *)
    let u = ref 0 in
    while Hashtbl.length chosen < m0 do
      if !u <> v && not (Hashtbl.mem chosen !u) then Hashtbl.add chosen !u ();
      incr u
    done;
    Hashtbl.iter (fun t () -> add t v) chosen
  done;
  of_pair_list st n !pairs

let isqrt x =
  let r = int_of_float (sqrt (float_of_int x)) in
  if (r + 1) * (r + 1) <= x then r + 1 else r

let by_name = function
  | "gnp" -> Some (fun st ~n -> gnp st ~n ~p:(4.0 /. float_of_int (max n 2)))
  | "dense" -> Some (fun st ~n -> gnp st ~n ~p:0.5)
  | "geometric" ->
      Some
        (fun st ~n ->
          geometric st ~n
            ~radius:(2.0 *. sqrt (log (float_of_int (max n 2)) /. float_of_int n)))
  | "grid" ->
      Some
        (fun st ~n ->
          let r = max 2 (isqrt n) in
          grid st ~rows:r ~cols:(max 2 ((n + r - 1) / r)))
  | "torus" ->
      Some
        (fun st ~n ->
          let r = max 3 (isqrt n) in
          torus st ~rows:r ~cols:(max 3 ((n + r - 1) / r)))
  | "ring" -> Some (fun st ~n -> ring st ~n:(max 3 n))
  | "path" -> Some (fun st ~n -> path st ~n:(max 2 n))
  | "star" -> Some (fun st ~n -> star st ~n:(max 2 n))
  | "complete" -> Some (fun st ~n -> complete st ~n)
  | "hypercube" ->
      Some
        (fun st ~n ->
          let rec dim_of k acc = if 1 lsl acc >= k then acc else dim_of k (acc + 1) in
          hypercube st ~dim:(max 1 (dim_of n 0)))
  | "lollipop" ->
      Some
        (fun st ~n ->
          let clique = max 2 (n / 2) in
          lollipop st ~clique ~tail:(max 0 (n - clique)))
  | "caterpillar" ->
      Some
        (fun st ~n ->
          let spine = max 1 (n / 4) in
          caterpillar st ~spine ~legs:(max 1 ((n / spine) - 1)))
  | "random" -> Some (fun st ~n -> random_connected st ~n ~m:(2 * n))
  | "scale-free" -> Some (fun st ~n -> barabasi_albert st ~n:(max 4 n) ~m0:2)
  | "tree" -> Some (fun st ~n -> random_tree st ~n)
  | _ -> None

let all_names =
  [
    "gnp"; "dense"; "geometric"; "grid"; "torus"; "ring"; "path"; "star";
    "complete"; "hypercube"; "lollipop"; "caterpillar"; "random"; "tree";
    "scale-free";
  ]
