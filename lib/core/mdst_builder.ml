module Graph = Repro_graph.Graph
module Tree = Repro_graph.Tree
module Min_degree = Repro_graph.Min_degree
module View = Repro_runtime.View
module Space = Repro_runtime.Space
module Nca = Repro_labels.Nca_labels
module E = Graph.Edge

type mark = { witness : E.t; su : Nca.label; sv : Nca.label; rank : int; zseq : Nca.label }

type icand = {
  z : int;
  zdeg : int;
  rank : int;
  e : E.t;
  su : Nca.label;  (** NCA label of e's smaller endpoint *)
  sv : Nca.label;  (** NCA label of e's larger endpoint *)
  f : E.t;  (** the tree edge removed at z *)
  f_child : int;
  f_child_seq : Nca.label;
}

type mcand = { me : E.t; msu : Nca.label; msv : Nca.label; mrank : int }

type veto = {
  vc : icand;
  hard : bool;
      (** hard = a staleness proof (witness became a tree edge, endpoint
          label mismatch): the candidate's mark must be dropped. Soft =
          an endpoint is merely not ready yet (degree > Δ−2): the
          candidate just stops publishing until the endpoint improves. *)
}

type state = {
  st : St_layer.t;
  size : int;
  heavy : int;
  seq : Nca.label;
  deg : int;
  dmax : int Aggregate.t option;
  good : bool;
  mark : mark option;
  frag : int;
  fdist : int;
  hub_agg : int Aggregate.t option;
  mark_agg : mcand Aggregate.t option;
  imp_agg : icand Aggregate.t option;
  veto_agg : veto Aggregate.t option;
  blocked : (E.t * int) option;
      (* witness edge whose candidacy was vetoed while my degree was the
         recorded value: do not re-adopt it until my degree changes *)
  sw : icand Local_search.session option;
}

let compare_icand (a : icand) b =
  let c = compare (-a.zdeg, a.z) (-b.zdeg, b.z) in
  if c <> 0 then c else compare a b

let compare_veto (a : veto) b =
  let c = compare_icand a.vc b.vc in
  if c <> 0 then c else compare a.hard b.hard

let compare_mcand (a : mcand) b =
  let c = compare (a.mrank, E.compare a.me b.me) (b.mrank, 0) in
  if c <> 0 then c else compare a b

let equal_icand (a : icand) b = a = b

(* Δ is a maximum: flip the order. *)
let compare_deg a b = compare b a

module LS = Local_search.Make (struct
  type t = state
  type cut = icand

  let st s = s.st
  let size s = s.size
  let heavy s = s.heavy
  let seq s = s.seq
  let sw s = s.sw
  let f_child c = c.f_child
  let equal_cut = equal_icand

  let backs s c =
    match s.imp_agg with Some { Aggregate.value; _ } -> equal_icand value c | None -> false

  let with_st s st = { s with st }
  let with_size s size = { s with size }
  let with_heavy s heavy = { s with heavy }
  let with_seq s seq = { s with seq }
  let cleared s = { s with sw = None }

  (* A re-parent moves me off my witness cycle: the marking restarts. *)
  let switched s st sess = { s with st; sw = Some sess; good = false; mark = None }
end)

(* ------------------------------------------------------------------ *)
(* Marking layer *)

(* The tree edge a witness-good node z would shed to reduce its degree:
   its parent edge when z is not the NCA of its witness edge, else the
   edge to the cycle child on the [su] side. With fresh labels this is
   always constructible for a node on the witness cycle; failure to
   construct it is a staleness proof and invalidates the mark. *)
let shed_edge (view : state View.t) (m : mark) =
  let s = view.self in
  if not (Nca.is_nca s.seq m.su m.sv) then
    let i = LS.parent_index view in
    if i < 0 then None
    else Some (E.make view.id view.nbr_ids.(i) view.nbr_weights.(i), view.id, s.seq)
  else begin
    let found = ref None and i = ref 0 in
    while Option.is_none !found && !i < view.degree do
      let c = view.nbrs.(!i) and cid = view.nbr_ids.(!i) in
      if c.st.St_layer.parent = view.id && Nca.is_ancestor c.seq m.su then
        found := Some (E.make view.id cid view.nbr_weights.(!i), cid, c.seq);
      incr i
    done;
    !found
  end

let delta (view : state View.t) =
  match view.self.dmax with Some { Aggregate.value; _ } -> Some value | None -> None

let rank_of (s : state) = match s.mark with Some m -> m.rank | None -> 0

let marking_target (view : state View.t) =
  let s = view.self in
  match delta view with
  | None -> (false, None)
  | Some d ->
      if s.deg <= d - 2 then (true, None)
      else begin
        let vetoed _witness =
          (* while any veto names me, neither my current mark nor a fresh
             adoption may stand: the closure restarts for me only after
             the veto has decayed, by which time the blocking situation
             has been given a window to change *)
          match s.veto_agg with
          | Some { Aggregate.value = v; _ } -> v.vc.z = view.id
          | None -> false
        in
        let blocked_witness (e : E.t) =
          match s.blocked with
          | Some (b, bdeg) -> E.equal b e && bdeg = s.deg
          | None -> false
        in
        let witness_not_my_tree_edge (e : E.t) =
          (not (E.mem e view.id))
          ||
          let other = E.other e view.id in
          s.st.St_layer.parent <> other
          &&
          match View.index view other with
          | i -> view.nbrs.(i).st.St_layer.parent <> view.id
          | exception Not_found -> true
        in
        match s.mark with
        | Some m
          when (not (E.mem m.witness view.id))
               (* an endpoint is good before its edge is ever usable, so a
                  witness incident to its holder is incoherent *)
               && (not (blocked_witness m.witness))
               && Nca.equal s.seq m.zseq
               && Nca.on_cycle ~x:s.seq ~u:m.su ~v:m.sv
               && m.rank >= 1
               && shed_edge view m <> None
               && witness_not_my_tree_edge m.witness
               && not (vetoed m.witness) ->
            (true, Some m)
        | _ -> (
            (* The closure (Algorithm 4 line 7): adopt the agreed
               marking edge when its fundamental cycle covers me. *)
            match s.mark_agg with
            | Some { Aggregate.value = mc; _ }
              when (not (E.mem mc.me view.id))
                   && (not (blocked_witness mc.me))
                   && Nca.on_cycle ~x:s.seq ~u:mc.msu ~v:mc.msv
                   && mc.mrank >= 1
                   && not (vetoed mc.me) ->
                let m =
                  { witness = mc.me; su = mc.msu; sv = mc.msv; rank = mc.mrank; zseq = s.seq }
                in
                if shed_edge view m <> None then (true, Some m) else (false, None)
            | _ -> (false, None))
      end

let frag_target (view : state View.t) good =
  if not good then (-1, 0)
  else begin
    let tn = LS.tree_nbrs view in
    let frag = ref view.id and fdist = ref 0 in
    for t = 0 to Array.length tn - 1 do
      let nb = view.nbrs.(tn.(t)) in
      let d = nb.fdist + 1 in
      if
        nb.good && nb.frag >= 0 && d <= view.n
        && (nb.frag < !frag || (nb.frag = !frag && d < !fdist))
      then begin
        frag := nb.frag;
        fdist := d
      end
    done;
    (!frag, !fdist)
  end

(* ------------------------------------------------------------------ *)
(* Aggregate bases *)

let hub_base (view : state View.t) =
  let s = view.self in
  match delta view with
  | Some d when s.good && s.deg = d && d >= 1 -> Some view.id
  | _ -> None

let mark_base (view : state View.t) =
  let s = view.self in
  if not s.good then None
  else begin
    let best = ref None in
    for i = 0 to view.degree - 1 do
      let nb = view.nbrs.(i) in
      let y = view.nbr_ids.(i) in
      let tree_edge = y = s.st.St_layer.parent || nb.st.St_layer.parent = view.id in
      if nb.good && (not tree_edge) && nb.frag >= 0 && s.frag >= 0 && nb.frag <> s.frag then begin
        let edge = E.make view.id y view.nbr_weights.(i) in
        let su, sv = if edge.E.u = view.id then (s.seq, nb.seq) else (nb.seq, s.seq) in
        let c =
          (* clamp: the rank is diagnostic nesting depth, never above n *)
          { me = edge; msu = su; msv = sv; mrank = min view.n (1 + max (rank_of s) (rank_of nb)) }
        in
        match !best with
        | Some b when compare_mcand b c <= 0 -> ()
        | _ -> best := Some c
      end
    done;
    !best
  end

(* The improvement candidate: z (witness-good, degree >= Δ-1, while some
   degree-Δ node is good) also computes the tree edge f it will shed:
   its parent edge when z is not the NCA of its witness edge, else the
   edge to the cycle child on the su side. *)
let imp_base (view : state View.t) =
  let s = view.self in
  match (delta view, s.mark, s.hub_agg) with
  | Some d, Some m, Some _ when s.good && s.deg >= d - 1 -> (
      let f_data = shed_edge view m in
      let suppressed =
        match s.veto_agg with
        | Some { Aggregate.value = v; _ } -> v.vc.z = view.id && E.equal v.vc.e m.witness
        | None -> false
      in
      match f_data with
      | Some (f, f_child, f_child_seq) when not suppressed ->
          Some
            {
              z = view.id;
              zdeg = s.deg;
              rank = m.rank;
              e = m.witness;
              su = m.su;
              sv = m.sv;
              f;
              f_child;
              f_child_seq;
            }
      | _ -> None)
  | _ -> None

(* Veto: I am an endpoint of the agreed improvement edge but my data is
   inconsistent with the candidate: degree too high without being a
   strictly lower-ranked witness-good node. *)
let veto_base (view : state View.t) =
  let s = view.self in
  match (delta view, s.imp_agg) with
  | Some d, Some { Aggregate.value = c; _ } when E.mem c.e view.id && c.z <> view.id ->
      let other = E.other c.e view.id in
      let e_is_tree_edge =
        s.st.St_layer.parent = other
        ||
        match View.index view other with
        | i -> view.nbrs.(i).st.St_layer.parent = view.id
        | exception Not_found -> false
      in
      (* In a coherent session the carried endpoint labels are the
         endpoints' current NCA labels; a mismatch proves the witness
         predates a tree change and can never initiate. *)
      let my_side = if c.e.E.u = view.id then c.su else c.sv in
      if e_is_tree_edge then Some { vc = c; hard = true }
        (* the witness edge has since been swapped INTO the tree: the
           candidate is stale and can never initiate — flush it *)
      else if not (Nca.equal s.seq my_side) then Some { vc = c; hard = true }
      else if s.deg > d - 2 then Some { vc = c; hard = true }
        (* I am not ready to absorb an extra edge: the candidate's mark is
           dropped and the closure re-marks from fresh data; if I was a
           legitimate pending enabler my own candidate now stands alone
           and executes first — the innermost-first order of Section VII
           emerges from this retry loop rather than from stored ranks *)
      else None
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Initiation *)

let initiate_rule (view : state View.t) =
  let s = view.self in
  match (delta view, s.imp_agg) with
  | Some d, Some { Aggregate.value = c; _ }
    when E.mem c.e view.id && (not (LS.holds s c)) && s.st.St_layer.parent <> -1 -> (
      let other = E.other c.e view.id in
      match View.index view other with
      | exception Not_found -> None
      | i ->
          let onb = view.nbrs.(i) in
          let not_tree =
            s.st.St_layer.parent <> other && onb.st.St_layer.parent <> view.id
          in
          let vetoed =
            match s.veto_agg with
            | Some { Aggregate.value = v; _ } -> equal_icand v.vc c
            | None -> false
          in
          let inside = Nca.is_ancestor c.f_child_seq s.seq in
          let fresh_session = Nca.equal s.seq (if c.e.E.u = view.id then c.su else c.sv) in
          if
            not_tree && (not vetoed) && inside && LS.joinable view i && fresh_session
            && s.deg <= d - 2
            && onb.deg <= d - 2
          then Some (LS.switch view i c)
          else None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* The protocol *)

let deg_rule (view : state View.t) =
  let deg = Array.length (LS.tree_nbrs view) in
  if deg <> view.self.deg then Some { view.self with deg } else None

let dmax_rule (view : state View.t) =
  let s = view.self in
  match
    Aggregate.step ~compare:compare_deg ~n:view.n ~base:(Some s.deg) ~self:s.dmax
      ~nbrs:view.nbrs ~get:(fun nb -> nb.dmax)
  with
  | Some dmax -> Some { s with dmax }
  | None -> None

let marking_rule (view : state View.t) =
  let s = view.self in
  let good, mark = marking_target view in
  (* when a veto names me and strips my mark, remember the witness
     (with my current degree) so I do not immediately re-adopt it;
     the block expires as soon as my degree changes *)
  let blocked =
    match (s.mark, mark, s.veto_agg) with
    | Some m, None, Some { Aggregate.value = v; _ }
      when v.vc.z = view.id && E.equal v.vc.e m.witness ->
        Some (m.witness, s.deg)
    | _ -> (
        (* the block expires when my degree changes — the one local
           event that can make the witness usable again; keeping it
           through hub-free phases is what breaks cross-epoch
           re-marking cycles (see DESIGN.md) *)
        match s.blocked with
        | Some (_, bdeg) when bdeg <> s.deg -> None
        | b -> b)
  in
  if good <> s.good || mark <> s.mark || blocked <> s.blocked then
    Some { s with good; mark; blocked }
  else None

let frag_rule (view : state View.t) =
  let s = view.self in
  let frag, fdist = frag_target view s.good in
  if frag <> s.frag || fdist <> s.fdist then Some { s with frag; fdist } else None

let hub_rule (view : state View.t) =
  let s = view.self in
  match
    Aggregate.step ~compare ~n:view.n ~base:(hub_base view) ~self:s.hub_agg ~nbrs:view.nbrs
      ~get:(fun nb -> nb.hub_agg)
  with
  | Some hub_agg -> Some { s with hub_agg }
  | None -> None

let mark_rule (view : state View.t) =
  let s = view.self in
  match
    Aggregate.step ~compare:compare_mcand ~n:view.n ~base:(mark_base view) ~self:s.mark_agg
      ~nbrs:view.nbrs ~get:(fun nb -> nb.mark_agg)
  with
  | Some mark_agg -> Some { s with mark_agg }
  | None -> None

let imp_rule (view : state View.t) =
  let s = view.self in
  match
    Aggregate.step ~compare:compare_icand ~n:view.n ~base:(imp_base view) ~self:s.imp_agg
      ~nbrs:view.nbrs ~get:(fun nb -> nb.imp_agg)
  with
  | Some imp_agg -> Some { s with imp_agg }
  | None -> None

let veto_rule (view : state View.t) =
  let s = view.self in
  match
    Aggregate.step ~compare:compare_veto ~n:view.n ~base:(veto_base view) ~self:s.veto_agg
      ~nbrs:view.nbrs ~get:(fun nb -> nb.veto_agg)
  with
  | Some veto_agg -> Some { s with veto_agg }
  | None -> None

(* Collateral composition, in priority order (see [Local_search]). *)
let rule_order =
  [|
    LS.tree_rule; LS.flip_rule; LS.clear_rule; deg_rule; LS.size_heavy_rule;
    LS.seq_rule; dmax_rule; marking_rule; frag_rule; hub_rule; mark_rule; imp_rule; veto_rule;
    initiate_rule;
  |]

(* ------------------------------------------------------------------ *)

let tree_of = LS.tree_of

let is_legal g sts =
  match tree_of g sts with
  | None -> false
  | Some t -> Min_degree.find_marking g t <> None

(* The Section VIII potential of the encoded tree: n·Δ_T + |{v : deg_T(v)
   = Δ_T}| (the lexicographic (Δ, N_Δ) pair of Lemma 7.1 flattened to one
   integer, as in experiment E10). 0 is unreachable — a tree always has a
   max-degree node — so the recorded series convention is phi = n·Δ + N_Δ
   relative to the FR fixpoint: we report the raw value and let the
   trajectory's plateau mark silence. *)
let potential g sts =
  match tree_of g sts with
  | None -> None
  | Some t ->
      let n = Tree.n t in
      let d = Tree.max_degree t in
      let nd = ref 0 in
      for v = 0 to n - 1 do
        if Tree.degree t v = d then incr nd
      done;
      Some ((n * d) + !nd)

let marking_of sts =
  {
    Min_degree.good = Array.map (fun s -> s.good) sts;
    fragment = Array.map (fun s -> s.frag) sts;
  }

module P = struct
  type nonrec state = state

  let equal_state (a : state) b = a = b

  let pp_state ppf s =
    Format.fprintf ppf "@[<h>%a deg=%d %s frag=%d/%d%s%s%s%s%s%s@]" St_layer.pp s.st s.deg
      (if s.good then "good" else "bad")
      s.frag s.fdist
      (match s.mark with
      | Some m -> Format.asprintf " mark=%a r%d" E.pp m.witness m.rank
      | None -> "")
      (match s.dmax with Some a -> Printf.sprintf " d%d" a.Aggregate.value | None -> "")
      (match s.hub_agg with Some a -> Printf.sprintf " hub%d" a.Aggregate.value | None -> "")
      (match s.mark_agg with
      | Some a -> Format.asprintf " mk=%a r%d" E.pp a.Aggregate.value.me a.Aggregate.value.mrank
      | None -> "")
      (match s.imp_agg with
      | Some a -> Format.asprintf " imp=z%d:%a r%d" a.Aggregate.value.z E.pp a.Aggregate.value.e a.Aggregate.value.rank
      | None -> "")
      (match s.veto_agg with
      | Some a ->
          Format.asprintf " veto=z%d%s" a.Aggregate.value.vc.z
            (if a.Aggregate.value.hard then "!" else "~")
      | None -> "")

  let mark_bits n (m : mark) =
    Space.edge_bits n + Nca.size_bits n m.su + Nca.size_bits n m.sv + Space.dist_bits n
    + Nca.size_bits n m.zseq

  let icand_bits n (c : icand) =
    (2 * Space.id_bits n)
    + (2 * Space.dist_bits n)
    + (2 * Space.edge_bits n)
    + Nca.size_bits n c.su + Nca.size_bits n c.sv + Nca.size_bits n c.f_child_seq

  let mcand_bits n (c : mcand) =
    Space.edge_bits n + Nca.size_bits n c.msu + Nca.size_bits n c.msv + Space.dist_bits n

  let size_bits n s =
    St_layer.size_bits n s.st
    + Space.dist_bits n (* size *)
    + Space.id_bits n (* heavy *)
    + Nca.size_bits n s.seq
    + Space.dist_bits n (* deg *)
    + Space.opt (fun (a : int Aggregate.t) -> ignore a; 2 * Space.dist_bits n) s.dmax
    + 1
    + Space.opt (mark_bits n) s.mark
    + Space.id_bits n + Space.dist_bits n (* frag, fdist *)
    + Space.opt (fun (a : int Aggregate.t) -> ignore a; 2 * Space.dist_bits n) s.hub_agg
    + Space.opt (fun (a : mcand Aggregate.t) -> mcand_bits n a.Aggregate.value + Space.dist_bits n) s.mark_agg
    + Space.opt (fun (a : icand Aggregate.t) -> icand_bits n a.Aggregate.value + Space.dist_bits n) s.imp_agg
    + Space.opt
        (fun (a : veto Aggregate.t) -> icand_bits n a.Aggregate.value.vc + 1 + Space.dist_bits n)
        s.veto_agg
    + Space.opt (fun (_, _) -> Space.edge_bits n + Space.dist_bits n) s.blocked
    + Space.opt (fun sess -> icand_bits n sess.Local_search.cut + Space.id_bits n) s.sw

  let initial _g v =
    {
      st = St_layer.self_root v;
      size = 1;
      heavy = -1;
      seq = Nca.of_root v;
      deg = 0;
      dmax = None;
      good = false;
      mark = None;
      frag = -1;
      fdist = 0;
      hub_agg = None;
      mark_agg = None;
      imp_agg = None;
      veto_agg = None;
      blocked = None;
      sw = None;
    }

  let random_state rng g _v =
    let n = Graph.n g in
    let random_seq () = Local_search.random_seq rng n in
    let random_edge () = Local_search.random_edge rng n in
    let random_mark () =
      {
        witness = random_edge ();
        su = random_seq ();
        sv = random_seq ();
        rank = Random.State.int rng 4;
        zseq = random_seq ();
      }
    in
    let random_icand () =
      {
        z = Random.State.int rng n;
        zdeg = Random.State.int rng n;
        rank = Random.State.int rng 4;
        e = random_edge ();
        su = random_seq ();
        sv = random_seq ();
        f = random_edge ();
        f_child = Random.State.int rng n;
        f_child_seq = random_seq ();
      }
    in
    {
      st = St_layer.random rng ~n;
      size = Random.State.int rng (n + 1);
      heavy = Random.State.int rng (n + 1) - 1;
      seq = random_seq ();
      deg = Random.State.int rng (n + 1);
      dmax =
        (if Random.State.bool rng then None
         else Some { Aggregate.value = Random.State.int rng n; hops = Random.State.int rng n });
      good = Random.State.bool rng;
      mark = (if Random.State.bool rng then Some (random_mark ()) else None);
      frag = Random.State.int rng (n + 1) - 1;
      fdist = Random.State.int rng (n + 1);
      hub_agg =
        (if Random.State.bool rng then None
         else Some { Aggregate.value = Random.State.int rng n; hops = Random.State.int rng n });
      mark_agg =
        (if Random.State.bool rng then None
         else
           Some
             {
               Aggregate.value =
                 {
                   me = random_edge ();
                   msu = random_seq ();
                   msv = random_seq ();
                   mrank = Random.State.int rng 4;
                 };
               hops = Random.State.int rng n;
             });
      imp_agg =
        (if Random.State.int rng 4 = 0 then
           Some { Aggregate.value = random_icand (); hops = Random.State.int rng n }
         else None);
      veto_agg = None;
      blocked =
        (if Random.State.int rng 4 = 0 then
           Some (random_edge (), Random.State.int rng n)
         else None);
      sw =
        (if Random.State.int rng 8 = 0 then
           Some { Local_search.cut = random_icand (); next = Random.State.int rng (n + 1) - 1 }
         else None);
    }

  (* Normalize: a rule that reproduces the current register is not an
     enabled move (silence must be syntactic). *)
  let step view = Local_search.first_move rule_order ~equal:equal_state view
  let is_legal = is_legal
  let potential = potential

  (* Field-delta rule tag, in the priority order of [rules]. *)
  let classify =
    Some
      (fun old fresh ->
        match LS.chain_tag old fresh with
        | Some tag -> tag
        | None when old.deg <> fresh.deg -> "deg"
        | None -> (
            match LS.label_tag old fresh with
            | Some tag -> tag
            | None ->
        if old.dmax <> fresh.dmax then "dmax-agg"
        else if old.good <> fresh.good || old.mark <> fresh.mark || old.blocked <> fresh.blocked
        then "marking"
        else if old.frag <> fresh.frag || old.fdist <> fresh.fdist then "frag"
        else if old.hub_agg <> fresh.hub_agg then "hub-agg"
        else if old.mark_agg <> fresh.mark_agg then "mark-agg"
        else if old.imp_agg <> fresh.imp_agg then "imp-agg"
        else if old.veto_agg <> fresh.veto_agg then "veto-agg"
        else "noop"))
end

module Engine = Repro_runtime.Engine.Make (P)

(* Register codec (see Mst_builder.Codec): flat int-array serialization
   of the variable-length MDST state, for bits accounting and the
   round-trip property — not an engine representation. *)
module Codec = struct
  module C = Repro_runtime.Codec
  open Local_search

  type nonrec state = state

  let push_mark w (m : mark) =
    push_edge w m.witness;
    push_seq w m.su;
    push_seq w m.sv;
    C.push w m.rank;
    push_seq w m.zseq

  let take_mark r =
    let witness = take_edge r in
    let su = take_seq r in
    let sv = take_seq r in
    let rank = C.take r in
    let zseq = take_seq r in
    { witness; su; sv; rank; zseq }

  let push_icand w (c : icand) =
    C.push w c.z;
    C.push w c.zdeg;
    C.push w c.rank;
    push_edge w c.e;
    push_seq w c.su;
    push_seq w c.sv;
    push_edge w c.f;
    C.push w c.f_child;
    push_seq w c.f_child_seq

  let take_icand r =
    let z = C.take r in
    let zdeg = C.take r in
    let rank = C.take r in
    let e = take_edge r in
    let su = take_seq r in
    let sv = take_seq r in
    let f = take_edge r in
    let f_child = C.take r in
    let f_child_seq = take_seq r in
    { z; zdeg; rank; e; su; sv; f; f_child; f_child_seq }

  let push_mcand w (m : mcand) =
    push_edge w m.me;
    push_seq w m.msu;
    push_seq w m.msv;
    C.push w m.mrank

  let take_mcand r =
    let me = take_edge r in
    let msu = take_seq r in
    let msv = take_seq r in
    let mrank = C.take r in
    { me; msu; msv; mrank }

  let push_veto w (v : veto) =
    push_icand w v.vc;
    C.push_bool w v.hard

  let take_veto r =
    let vc = take_icand r in
    let hard = C.take_bool r in
    { vc; hard }

  let pack ~n:_ (s : state) =
    let w = C.writer () in
    LS.push_prefix w s;
    C.push w s.deg;
    C.push_opt w (push_agg C.push) s.dmax;
    C.push_bool w s.good;
    C.push_opt w push_mark s.mark;
    C.push w s.frag;
    C.push w s.fdist;
    C.push_opt w (push_agg C.push) s.hub_agg;
    C.push_opt w (push_agg push_mcand) s.mark_agg;
    C.push_opt w (push_agg push_icand) s.imp_agg;
    C.push_opt w (push_agg push_veto) s.veto_agg;
    C.push_opt w
      (fun w (e, d) ->
        push_edge w e;
        C.push w d)
      s.blocked;
    C.push_opt w (push_session push_icand) s.sw;
    C.contents w

  let unpack ~n:_ a =
    let r = C.reader a in
    let st, size, heavy, seq = LS.take_prefix r in
    let deg = C.take r in
    let dmax = C.take_opt r (take_agg C.take) in
    let good = C.take_bool r in
    let mark = C.take_opt r take_mark in
    let frag = C.take r in
    let fdist = C.take r in
    let hub_agg = C.take_opt r (take_agg C.take) in
    let mark_agg = C.take_opt r (take_agg take_mcand) in
    let imp_agg = C.take_opt r (take_agg take_icand) in
    let veto_agg = C.take_opt r (take_agg take_veto) in
    let blocked =
      C.take_opt r (fun r ->
          let e = take_edge r in
          let d = C.take r in
          (e, d))
    in
    let sw = C.take_opt r (take_session take_icand) in
    C.expect_end r;
    {
      st;
      size;
      heavy;
      seq;
      deg;
      dmax;
      good;
      mark;
      frag;
      fdist;
      hub_agg;
      mark_agg;
      imp_agg;
      veto_agg;
      blocked;
      sw;
    }
end
