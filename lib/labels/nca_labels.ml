module Tree = Repro_graph.Tree
module Space = Repro_runtime.Space

type label = (int * int) array (* (head id, position) pairs, root first *)

(* Monomorphic forms of polymorphic [(=)] and [compare] on the pair
   arrays: the shorter label first, then the pairs lexicographically
   (head, then position). The MST candidate order breaks ties with
   [compare], so it must stay exactly this order. *)
let equal (a : label) (b : label) =
  let n = Array.length a in
  a == b
  || (n = Array.length b
     &&
     let rec go i =
       i = n
       ||
       let ha, pa = a.(i) and hb, pb = b.(i) in
       ha = hb && pa = pb && go (i + 1)
     in
     go 0)

let compare (a : label) (b : label) =
  let la = Array.length a and lb = Array.length b in
  if a == b then 0
  else if la <> lb then Int.compare la lb
  else
    let rec go i =
      if i = la then 0
      else
        let ha, pa = a.(i) and hb, pb = b.(i) in
        if ha <> hb then Int.compare ha hb
        else if pa <> pb then Int.compare pa pb
        else go (i + 1)
    in
    go 0

let length = Array.length

let pp ppf l =
  Format.fprintf ppf "@[<h>[";
  Array.iteri
    (fun i (h, p) -> Format.fprintf ppf "%s(%d,%d)" (if i > 0 then ";" else "") h p)
    l;
  Format.fprintf ppf "]@]"

let size_bits n l = Array.length l * (Space.id_bits n + Space.dist_bits n)
let of_root r = [| (r, 0) |]
let of_pairs a = Array.copy a
let to_pairs (l : label) = Array.copy l

(* An empty label names no heavy path to extend; it only occurs in an
   arbitrary register, so the child follows it until the parent's own
   guard repairs it. *)
let extend_heavy l =
  let k = Array.length l in
  if k = 0 then [||]
  else
    let l = Array.copy l in
    let h, p = l.(k - 1) in
    l.(k - 1) <- (h, p + 1);
    l

let extend_light l ~child = Array.append l [| (child, 0) |]

let prover t =
  let hp = Heavy_path.compute t in
  let n = Tree.n t in
  let labels = Array.make n [||] in
  let order = Array.init n (fun v -> v) in
  Array.sort (fun a b -> Stdlib.compare (Tree.pre t a) (Tree.pre t b)) order;
  Array.iter
    (fun v ->
      if v = Tree.root t then labels.(v) <- of_root v
      else
        let p = Tree.parent t v in
        if Heavy_path.heavy_child hp p = v then labels.(v) <- extend_heavy labels.(p)
        else labels.(v) <- extend_light labels.(p) ~child:v)
    order;
  labels

(* [nca a b] is always the first [k = nca_length a b] pairs of [a] with
   the last position lowered to the smaller of the two labels' positions
   there (the pairs below [k - 1] are equal in [a] and [b], and the heads
   at [k - 1] agree):
   - one label is a prefix of the other: the shorter one is the ancestor;
   - the walks leave a common heavy path at different positions: the NCA
     sits on that path at the smaller position;
   - the walks leave a common heavy path at the same position into
     different light children: the NCA is that exit node, whose label is
     the common prefix. *)
let nca_length (a : label) (b : label) =
  let m = Int.min (Array.length a) (Array.length b) in
  let rec go i =
    if i >= m then m
    else
      let ha, pa = a.(i) and hb, pb = b.(i) in
      if ha <> hb then i else if pa <> pb then i + 1 else go (i + 1)
  in
  go 0

(* The last position of [nca a b], given [k = nca_length a b > 0]. *)
let nca_pos (a : label) (b : label) k =
  let _, pa = a.(k - 1) and _, pb = b.(k - 1) in
  Int.min pa pb

let nca (a : label) (b : label) : label =
  let k = nca_length a b in
  if k = 0 then [||]
  else
    let p = nca_pos a b k in
    if k = Array.length a && p = snd a.(k - 1) then a
    else if k = Array.length b && p = snd b.(k - 1) then b
    else begin
      let l = Array.sub a 0 k in
      l.(k - 1) <- (fst a.(k - 1), p);
      l
    end

(* [same_nca a b c d] is [equal (nca a b) (nca c d)] without building
   either label. *)
let same_nca a b c d =
  let k = nca_length a b in
  k = nca_length c d
  && (k = 0
     ||
     let rec prefix j =
       j = k - 1
       ||
       let ha, pa = a.(j) and hc, pc = c.(j) in
       ha = hc && pa = pc && prefix (j + 1)
     in
     prefix 0 && fst a.(k - 1) = fst c.(k - 1) && nca_pos a b k = nca_pos c d k)

let is_nca x u v = same_nca x x u v
let is_ancestor a v = same_nca a v a a

let on_cycle ~x ~u ~v =
  (same_nca x u x x && same_nca x v u v) || (same_nca x u u v && same_nca x v x x)

let resolve t l =
  let labels = prover t in
  let rec go v = if v >= Tree.n t then raise Not_found else if equal labels.(v) l then v else go (v + 1) in
  go 0
