module Tree = Repro_graph.Tree
module View = Repro_runtime.View
module Nca = Repro_labels.Nca_labels
module C = Repro_runtime.Codec
module E = Repro_graph.Graph.Edge

type 'c session = { cut : 'c; next : int }

module type REGISTER = sig
  type t
  type cut

  val st : t -> St_layer.t
  val size : t -> int
  val heavy : t -> int
  val seq : t -> Nca.label
  val sw : t -> cut session option
  val f_child : cut -> int
  val equal_cut : cut -> cut -> bool
  val backs : t -> cut -> bool
  val with_st : t -> St_layer.t -> t
  val with_size : t -> int -> t
  val with_heavy : t -> int -> t
  val with_seq : t -> Nca.label -> t
  val cleared : t -> t
  val switched : t -> St_layer.t -> cut session -> t
end

(* A loop over a static array: a guard evaluation builds no closure. *)
let first_move rules ~equal (view : 'a View.t) =
  let r = ref None and i = ref 0 in
  while Option.is_none !r && !i < Array.length rules do
    r := rules.(!i) view;
    incr i
  done;
  match !r with Some s' when equal s' view.View.self -> None | r -> r

let random_seq rng n =
  Nca.of_pairs @@ Array.init
    (1 + Random.State.int rng 2)
    (fun _ -> (Random.State.int rng n, Random.State.int rng n))

let random_edge rng n =
  let a = Random.State.int rng n and b = Random.State.int rng n in
  (* At n = 1 the other endpoint is the non-node 1: register garbage,
     never a self-loop. For n >= 2, [max 2 n = n]. *)
  if a = b then E.make a ((b + 1) mod max 2 n) (1 + Random.State.int rng (n * n))
  else E.make a b (1 + Random.State.int rng (n * n))

let push_edge w (e : E.t) =
  C.push w e.E.u;
  C.push w e.E.v;
  C.push w e.E.w

let take_edge r =
  let u = C.take r in
  let v = C.take r in
  let w = C.take r in
  E.make u v w

let push_seq w l = C.push_array w C.push_pair (Nca.to_pairs l)
let take_seq r = Nca.of_pairs (C.take_array r C.take_pair)

let push_agg push_v w (a : _ Aggregate.t) =
  push_v w a.Aggregate.value;
  C.push w a.Aggregate.hops

let take_agg take_v r =
  let value = take_v r in
  let hops = C.take r in
  { Aggregate.value; hops }

let push_session push_cut w s =
  push_cut w s.cut;
  C.push w s.next

let take_session take_cut r =
  let cut = take_cut r in
  let next = C.take r in
  { cut; next }

module Make (R : REGISTER) = struct
  let parent s = (R.st s).St_layer.parent

  (* ---------------------------------------------------------------- *)
  (* The tree-neighbour index *)

  let parent_index (view : R.t View.t) =
    let p = parent view.self in
    if p = -1 then -1 else match View.index view p with i -> i | exception Not_found -> -1

  let is_child (view : R.t View.t) i = parent view.nbrs.(i) = view.id

  let tree_nbrs (view : R.t View.t) =
    let pi = parent_index view in
    let first = if pi >= 0 then 1 else 0 in
    let k = ref first in
    for i = 0 to view.degree - 1 do
      if is_child view i then incr k
    done;
    let tn = Array.make !k pi in
    k := first;
    for i = 0 to view.degree - 1 do
      if is_child view i then begin
        tn.(!k) <- i;
        incr k
      end
    done;
    tn

  (* ---------------------------------------------------------------- *)
  (* The switch chain *)

  let joinable (view : R.t View.t) i =
    let u = R.st view.nbrs.(i) and s = R.st view.self in
    u.St_layer.root = s.St_layer.root && u.St_layer.dist + 1 <= view.n - 1

  let holds s cut = match R.sw s with Some { cut = c; _ } -> R.equal_cut c cut | None -> false

  let switch (view : R.t View.t) i cut =
    let s = view.self and u = R.st view.nbrs.(i) in
    let next = if view.id = R.f_child cut then -1 else parent s in
    R.switched s
      { St_layer.parent = view.nbr_ids.(i); root = u.St_layer.root; dist = u.St_layer.dist + 1 }
      { cut; next }

  (* The first neighbour holding a token addressed to me that has
     already flipped onto its own predecessor (its parent is not me);
     -1 when none. *)
  let incoming_token (view : R.t View.t) =
    let found = ref (-1) and i = ref 0 in
    while !found < 0 && !i < view.degree do
      let nb = view.nbrs.(!i) in
      (match R.sw nb with
      | Some { next; _ } when next = view.id && parent nb <> view.id -> found := !i
      | _ -> ());
      incr i
    done;
    !found

  (* Consume an incoming token. Only tokens of the session I myself
     agreed to are taken: a starved neighbour's stale token (its holder
     never scheduled to clear it) must not be re-consumed, or a
     deterministic daemon can ping-pong a node between two standing
     tokens. My own agreement is frozen until I flip (the flip outranks
     the aggregates), so for a live chain it always matches. *)
  let flip_rule (view : R.t View.t) =
    let i = incoming_token view in
    if i < 0 then None
    else
      match R.sw view.nbrs.(i) with
      | None -> None
      | Some { cut; _ } ->
          let s = view.self in
          if not (R.backs s cut) then None
          else if parent s = view.nbr_ids.(i) then None
          else if not (joinable view i) then None
          else if holds s cut then None
          else Some (switch view i cut)

  (* Drop my token once the addressee has taken it (its parent is me)
     or when it is garbage: the addressee is not a neighbour, the chain
     is complete, or the token is addressed to my own parent — a
     waiting holder always points AT its flip target while addressing
     its OLD parent, so [next = parent] survives only from an arbitrary
     initial state. Unbacked but well-formed tokens stay: the addressee
     refuses them, clearing them early would abort live chains whose
     holder's aggregates churn first under an unfair daemon, and
     initiation overwrites a stale token. *)
  let clear_rule (view : R.t View.t) =
    let s = view.self in
    match R.sw s with
    | None -> None
    | Some { next; _ } ->
        let consumed =
          next = -1
          ||
          match View.index view next with
          | exception Not_found -> true
          | i -> is_child view i
        in
        if consumed || next = parent s then Some (R.cleared s) else None

  (* ---------------------------------------------------------------- *)
  (* Shared rules, in the builders' priority order: tree, hand-off,
     token clear, then the labels. *)

  let tree_rule (view : R.t View.t) =
    match St_layer.step view ~get:R.st ~keep_shape:true with
    | Some st -> Some (R.with_st view.self st)
    | None -> None

  (* The label targets are local fixpoints. Subtree size and heavy
     child (the first child of maximum size, -1 for a leaf) come from
     one pass over the children; a stale size is written first. *)
  let size_heavy_rule (view : R.t View.t) =
    let size = ref 1 and heavy = ref (-1) and best = ref 0 in
    for i = 0 to view.degree - 1 do
      if is_child view i then begin
        let c = R.size view.nbrs.(i) in
        size := !size + c;
        if !heavy = -1 || c > !best then begin
          heavy := view.nbr_ids.(i);
          best := c
        end
      end
    done;
    let s = view.self in
    if !size <> R.size s then Some (R.with_size s !size)
    else if !heavy <> R.heavy s then Some (R.with_heavy s !heavy)
    else None

  let seq_rule (view : R.t View.t) =
    let s = view.self in
    let p = parent s in
    let seq =
      if p = -1 then Nca.of_root view.id
      else
        match View.index view p with
        | exception Not_found -> R.seq s (* tree layer will fire first *)
        | i ->
            let p = view.nbrs.(i) in
            if R.heavy p = view.id then Nca.extend_heavy (R.seq p)
            else Nca.extend_light (R.seq p) ~child:view.id
    in
    if not (Nca.equal seq (R.seq s)) then Some (R.with_seq s seq) else None

  (* ---------------------------------------------------------------- *)

  let tree_of _g sts =
    let parent = Array.map parent sts in
    if Tree.check_parents ~root:0 parent then Some (Tree.of_parents ~root:0 parent) else None

  let chain_tag old fresh =
    let a = R.st old and b = R.st fresh in
    if not (St_layer.equal a b) then
      Some (if R.sw old <> R.sw fresh then "switch" else St_layer.classify a b)
    else if R.sw old <> R.sw fresh then
      Some (match R.sw fresh with None -> "token-clear" | Some _ -> "token")
    else None

  let label_tag old fresh =
    if R.size old <> R.size fresh then Some "size"
    else if R.heavy old <> R.heavy fresh then Some "heavy"
    else if not (Nca.equal (R.seq old) (R.seq fresh)) then Some "seq"
    else None

  let push_prefix w s =
    let st = R.st s in
    C.push w st.St_layer.parent;
    C.push w st.St_layer.root;
    C.push w st.St_layer.dist;
    C.push w (R.size s);
    C.push w (R.heavy s);
    push_seq w (R.seq s)

  let take_prefix r =
    let parent = C.take r in
    let root = C.take r in
    let dist = C.take r in
    let size = C.take r in
    let heavy = C.take r in
    let seq = take_seq r in
    ({ St_layer.parent; root; dist }, size, heavy, seq)
end
