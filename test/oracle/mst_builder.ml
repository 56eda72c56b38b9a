module Graph = Repro_graph.Graph
module Tree = Repro_graph.Tree
module Mst = Repro_graph.Mst
module View = Repro_runtime.View
module Space = Repro_runtime.Space
module Nca = Repro_labels.Nca_labels
module FL = Repro_labels.Fragment_labels
module E = Graph.Edge

type cand = { lvl : int; e : E.t; su : Nca.label; sv : Nca.label }
type cut = { cand : cand; f : E.t; f_child : int; f_child_seq : Nca.label }
type session = { cut : cut; next : int }

type state = {
  st : St_layer.t;
  size : int;
  heavy : int;
  seq : Nca.label;
  frags : FL.label;
  cand_agg : cand Aggregate.t option;
  cut_agg : cut Aggregate.t option;
  sw : session option;
}

let compare_cand a b =
  let c = Int.compare a.lvl b.lvl in
  if c <> 0 then c
  else
    let c = E.compare a.e b.e in
    if c <> 0 then c
    else
      let c = Nca.compare a.su b.su in
      if c <> 0 then c else Nca.compare a.sv b.sv

(* Cuts are ordered by their candidate first; among cuts for the same
   candidate the HEAVIEST f wins (Tarjan's red rule), so f compares
   reversed. *)
let compare_cut a b =
  let c = compare_cand a.cand b.cand in
  if c <> 0 then c
  else
    let c = E.compare b.f a.f in
    if c <> 0 then c
    else
      let c = Int.compare a.f_child b.f_child in
      if c <> 0 then c else Nca.compare a.f_child_seq b.f_child_seq

let equal_cand a b = compare_cand a b = 0
let equal_cut a b = compare_cut a b = 0

(* ------------------------------------------------------------------ *)
(* Local structural helpers *)

(* [E.compare] on unboxed fields: an edge is (weight, smaller endpoint,
   larger endpoint), compared lexicographically. *)
let compare_edge w u v w' u' v' =
  if w <> w' then Int.compare w w' else if u <> u' then Int.compare u u' else Int.compare v v'

(* [E.equal o (E.make x y w)] without building the edge. *)
let is_edge (o : E.t) x y w = o.E.w = w && o.E.u = Int.min x y && o.E.v = Int.max x y

(* View indices of the incident tree edges: the parent's first (when it
   is a neighbor), then every child in increasing id order. An arbitrary
   register whose parent also names it as parent lists that neighbor
   twice. *)
let tree_nbrs (view : state View.t) =
  let p = view.self.st.St_layer.parent in
  let pi = if p = -1 then -1 else match View.index view p with i -> i | exception Not_found -> -1 in
  let first = if pi >= 0 then 1 else 0 in
  let k = ref first in
  for i = 0 to view.degree - 1 do
    if view.nbrs.(i).st.St_layer.parent = view.id then incr k
  done;
  let tn = Array.make !k pi in
  k := first;
  for i = 0 to view.degree - 1 do
    if view.nbrs.(i).st.St_layer.parent = view.id then begin
      tn.(!k) <- i;
      incr k
    end
  done;
  tn

(* ------------------------------------------------------------------ *)
(* Label targets (local fixpoints) *)

let size_target (view : state View.t) =
  let size = ref 1 in
  for i = 0 to view.degree - 1 do
    let c = view.nbrs.(i) in
    if c.st.St_layer.parent = view.id then size := !size + c.size
  done;
  !size

(* The first child of maximum size, -1 for a leaf. *)
let heavy_target (view : state View.t) =
  let heavy = ref (-1) and best = ref 0 in
  for i = 0 to view.degree - 1 do
    let c = view.nbrs.(i) in
    if c.st.St_layer.parent = view.id && (!heavy = -1 || c.size > !best) then begin
      heavy := view.nbr_ids.(i);
      best := c.size
    end
  done;
  !heavy

let seq_target (view : state View.t) =
  let s = view.self in
  if s.st.St_layer.parent = -1 then Nca.of_root view.id
  else
    match View.index view s.st.St_layer.parent with
    | exception Not_found -> s.seq (* tree layer will fire first *)
    | i ->
        let p = view.nbrs.(i) in
        if p.heavy = view.id then Nca.extend_heavy p.seq
        else Nca.extend_light p.seq ~child:view.id

(* The Borůvka-trace target, computed level by level from the neighbors'
   published arrays (Section VI). Level 0 is purely local; level i+1
   aggregates within the (certified) merged region via fdist/odist
   chains. Every fold runs over the incident tree edges in [tree_nbrs]
   order and keeps the first of equal candidates.

   A level whose fields equal the current register's entry reuses that
   entry, and a target equal to the whole register is the register
   itself, so at a fixpoint the rule allocates no entry and [FL.equal]
   returns at once. *)
let frags_target (view : state View.t) : FL.label =
  let n = view.n and me = view.id and cur = view.self.frags in
  let cap = Space.log2_ceil (Int.max 2 n) + 1 in
  let tn = tree_nbrs view in
  let k = Array.length tn in
  let lighter j b =
    let y = view.nbr_ids.(j) and by = view.nbr_ids.(b) in
    compare_edge view.nbr_weights.(j) (Int.min me y) (Int.max me y) view.nbr_weights.(b)
      (Int.min me by) (Int.max me by)
    < 0
  in
  (* The level-[i] entry: [out] is my own tree edge to view index [own]
     when [own >= 0], else [nb_out]. *)
  let entry i frag fdist own nb_out odist =
    let same =
      i < Array.length cur
      &&
      let c = cur.(i) in
      c.FL.frag = frag && c.FL.fdist = fdist && c.FL.odist = odist
      &&
      match c.FL.out with
      | Some co when own >= 0 -> is_edge co me view.nbr_ids.(own) view.nbr_weights.(own)
      | Some co -> ( match nb_out with Some o -> E.equal co o | None -> false)
      | None -> own < 0 && Option.is_none nb_out
    in
    if same then cur.(i)
    else
      let out =
        if own >= 0 then Some (E.make me view.nbr_ids.(own) view.nbr_weights.(own)) else nb_out
      in
      { FL.frag; fdist; out; odist }
  in
  (* Level 0: the lightest incident tree edge. *)
  let own0 = ref (-1) in
  for t = 0 to k - 1 do
    if !own0 < 0 || lighter tn.(t) !own0 then own0 := tn.(t)
  done;
  let out = Array.make cap (entry 0 me 0 !own0 None 0) in
  let len = ref 1 in
  while !len < cap && Option.is_some out.(!len - 1).FL.out do
    let i = !len in
    let p = out.(i - 1) in
    let po = Option.get p.FL.out in
    (* frag/fdist: min previous-level id over the tree neighbors merged
       with me at level i. *)
    let frag = ref p.FL.frag and fdist = ref 0 in
    for t = 0 to k - 1 do
      let j = tn.(t) in
      let nb = view.nbrs.(j) in
      if i < Array.length nb.frags then begin
        let ne = nb.frags.(i) in
        let d = ne.FL.fdist + 1 in
        if d <= n && (ne.FL.frag < !frag || (ne.FL.frag = !frag && d < !fdist)) then begin
          let y = view.nbr_ids.(j) and w = view.nbr_weights.(j) in
          let pe = nb.frags.(i - 1) in
          if
            pe.FL.frag = p.FL.frag
            || is_edge po me y w
            || match pe.FL.out with Some o -> is_edge o me y w | None -> false
          then begin
            frag := ne.FL.frag;
            fdist := d
          end
        end
      end
    done;
    let frag = !frag and fdist = !fdist in
    (* out/odist: min outgoing tree edge over level-i mates — my own
       edges to other level-i fragments at 0 hops, first, then the
       mates' published edges one hop further. One pass keeps the two
       minimums apart (their conditions are disjoint); a mate's edge
       wins only when strictly below my own. *)
    let own = ref (-1) and nb_out = ref None and odist = ref 0 in
    for t = 0 to k - 1 do
      let j = tn.(t) in
      let nb = view.nbrs.(j) in
      if i < Array.length nb.frags then begin
        let ne = nb.frags.(i) in
        if ne.FL.frag <> frag then begin
          if !own < 0 || lighter j !own then own := j
        end
        else
          let d = ne.FL.odist + 1 in
          match ne.FL.out with
          | Some o when d <= n -> (
              match !nb_out with
              | Some b when not (E.compare o b < 0 || (E.equal o b && d < !odist)) -> ()
              | _ ->
                  nb_out := ne.FL.out;
                  odist := d)
          | _ -> ()
      end
    done;
    let mate_wins =
      match !nb_out with
      | None -> false
      | Some o ->
          !own < 0
          ||
          let y = view.nbr_ids.(!own) in
          let c =
            compare_edge o.E.w o.E.u o.E.v view.nbr_weights.(!own) (Int.min me y) (Int.max me y)
          in
          c < 0 || (c = 0 && !odist < 0)
    in
    out.(i) <-
      (if mate_wins then entry i frag fdist (-1) !nb_out !odist
       else entry i frag fdist !own None 0);
    incr len
  done;
  let len = !len in
  let rec reused i = i = len || (out.(i) == cur.(i) && reused (i + 1)) in
  if len = Array.length cur && reused 0 then cur
  else if len = cap then out
  else Array.sub out 0 len

(* ------------------------------------------------------------------ *)
(* Candidate and cut bases *)

(* The lightest violating incident edge over all levels. A candidate
   record is built only when it beats the current best: every candidate
   here has [su = s.seq], so the order is (level, edge, [sv]). *)
let cand_base (view : state View.t) =
  let s = view.self and me = view.id in
  let best = ref None in
  for j = 0 to Array.length view.nbr_ids - 1 do
    let nb = view.nbrs.(j) and y = view.nbr_ids.(j) and w = view.nbr_weights.(j) in
    let u = Int.min me y and v = Int.max me y in
    for i = 0 to Array.length s.frags - 1 do
      let en = s.frags.(i) in
      match en.FL.out with
      | Some o
        when i < Array.length nb.frags
             && nb.frags.(i).FL.frag <> en.FL.frag
             && compare_edge w u v o.E.w o.E.u o.E.v < 0 ->
          let wins =
            match !best with
            | None -> true
            | Some b ->
                let c = Int.compare b.lvl i in
                if c <> 0 then c > 0
                else
                  let c = compare_edge b.e.E.w b.e.E.u b.e.E.v w u v in
                  if c <> 0 then c > 0 else Nca.compare b.sv nb.seq > 0
          in
          if wins then best := Some { lvl = i; e = E.make me y w; su = s.seq; sv = nb.seq }
      | _ -> ()
    done
  done;
  !best

let cut_base (view : state View.t) =
  let s = view.self in
  match s.cand_agg with
  | None -> None
  | Some { Aggregate.value = c; _ } ->
      if s.st.St_layer.parent = -1 then None
      else begin
        if Nca.is_nca s.seq c.su c.sv then None
        else if Nca.on_cycle ~x:s.seq ~u:c.su ~v:c.sv then begin
          match View.index view s.st.St_layer.parent with
          | exception Not_found -> None
          | i ->
              let f = E.make view.id view.nbr_ids.(i) view.nbr_weights.(i) in
              Some { cand = c; f; f_child = view.id; f_child_seq = s.seq }
        end
        else None
      end

(* ------------------------------------------------------------------ *)
(* Switch chain *)

(* A neighbor holds a token addressed to me: consume it. *)
let incoming_token (view : state View.t) =
  let found = ref None in
  Array.iteri
    (fun i nb ->
      match nb.sw with
      | Some { cut; next } when next = view.id && !found = None ->
          (* Sanity: the handing neighbor must have flipped onto its own
             predecessor already (its parent is not me). *)
          if nb.st.St_layer.parent <> view.id then
            found := Some (view.nbr_ids.(i), view.nbrs.(i), cut)
      | _ -> ())
    view.nbrs;
  !found

let flip_step (view : state View.t) =
  match incoming_token view with
  | None -> None
  | Some (uid, u, cut) ->
      let s = view.self in
      (* Only consume tokens of the session I myself agreed to: a starved
         neighbor's stale token (its holder never being scheduled to
         clear it) must not be re-consumed — deterministic daemons can
         otherwise ping-pong a node between two standing tokens. My own
         aggregate is frozen until I flip (flip outranks aggregate
         updates), so for a live chain this always matches. *)
      let backed =
        match s.cut_agg with
        | Some { Aggregate.value; _ } -> equal_cut value cut
        | None -> false
      in
      if not backed then None
      else if s.st.St_layer.parent = uid then None
      else if u.st.St_layer.root <> s.st.St_layer.root || u.st.St_layer.dist + 1 > view.n - 1
      then None
      else if (match s.sw with Some { cut = c; _ } -> equal_cut c cut | None -> false)
      then None
      else begin
        let next = if view.id = cut.f_child then -1 else s.st.St_layer.parent in
        Some
          {
            s with
            st =
              { St_layer.parent = uid; root = u.st.St_layer.root; dist = u.st.St_layer.dist + 1 };
            sw = Some { cut; next };
          }
      end

(* Drop my token once the addressee has taken it (its parent is me),
   when it is garbage (addressee not a neighbor / chain complete), or
   when the session is no longer backed by the live cut agreement —
   the timeout that flushes tokens surviving from arbitrary initial
   configurations. *)
let token_clear_step (view : state View.t) =
  let s = view.self in
  match s.sw with
  | None -> None
  | Some { cut; next } ->
      let consumed =
        next = -1
        ||
        match View.index view next with
        | exception Not_found -> true
        | i -> view.nbrs.(i).st.St_layer.parent = view.id
      in
      (* A legitimately waiting holder always points AT its flip target
         while addressing its OLD parent, so [next = parent] is garbage
         (e.g. a token surviving from an arbitrary initial state whose
         addressee would otherwise ignore it forever). Unbacked-but-
         wellformed tokens are NOT cleared here — the addressee refuses
         them anyway, and clearing them early would abort live chains
         whose holder's aggregates churn first under an unfair daemon;
         instead, initiation simply ignores (and overwrites) a stale
         token. *)
      ignore cut;
      let garbage = next = s.st.St_layer.parent in
      if consumed || garbage then Some { s with sw = None } else None

(* Initiation: I am the endpoint of the agreed candidate edge e inside
   the detached subtree; re-parent across e and send the token upward. *)
let initiate_step (view : state View.t) =
  let s = view.self in
  match (s.cand_agg, s.cut_agg) with
  | Some { Aggregate.value = c; _ }, Some { Aggregate.value = cut; _ }
    when equal_cand c cut.cand && E.mem c.e view.id && s.st.St_layer.parent <> -1 ->
      let other = E.other c.e view.id in
      if s.st.St_layer.parent = other then None
      else if not (Nca.is_ancestor cut.f_child_seq s.seq) then None
      else if
        (* a live token blocks re-initiation; a stale (unbacked) one is
           overwritten *)
        match s.sw with
        | Some { cut = c'; _ } -> equal_cut c' cut
        | None -> false
      then None
      else if E.compare c.e cut.f >= 0 then None
        (* Tarjan's red rule requires f strictly heavier than e; the
           weight guard also makes every completed session strictly
           decrease the tree weight, so bogus transient sessions cannot
           cycle. *)
      else begin
        match View.index view other with
        | exception Not_found -> None
        | i when view.nbrs.(i).st.St_layer.parent = view.id ->
            None (* e is a tree edge through the other endpoint *)
        | i
          when view.nbrs.(i).st.St_layer.root <> s.st.St_layer.root
               || view.nbrs.(i).st.St_layer.dist + 1 > view.n - 1 ->
            None (* never re-parent across trees: the election owns that *)
        | i ->
            let u = view.nbrs.(i) in
            let next = if view.id = cut.f_child then -1 else s.st.St_layer.parent in
            Some
              {
                s with
                st =
                  {
                    St_layer.parent = other;
                    root = u.st.St_layer.root;
                    dist = u.st.St_layer.dist + 1;
                  };
                sw = Some { cut; next };
              }
      end
  | _ -> None

(* ------------------------------------------------------------------ *)
(* The protocol *)

(* Collateral composition: the first enabled rule (in priority order)
   fires. The rules are top-level functions in a static array, so a
   guard evaluation builds no closures. *)

(* 1. Tree layer. *)
let tree_rule (view : state View.t) =
  match St_layer.step view ~get:(fun x -> x.st) ~keep_shape:true with
  | Some st -> Some { view.self with st }
  | None -> None

(* 3. Label layers. *)
let size_rule (view : state View.t) =
  let size = size_target view in
  if size <> view.self.size then Some { view.self with size } else None

let heavy_rule (view : state View.t) =
  let heavy = heavy_target view in
  if heavy <> view.self.heavy then Some { view.self with heavy } else None

let seq_rule (view : state View.t) =
  let seq = seq_target view in
  if not (Nca.equal seq view.self.seq) then Some { view.self with seq } else None

let frags_rule (view : state View.t) =
  let frags = frags_target view in
  if not (FL.equal frags view.self.frags) then Some { view.self with frags } else None

(* 4. Aggregates. *)
let cand_rule (view : state View.t) =
  let s = view.self in
  match
    Aggregate.step ~compare:compare_cand ~n:view.n ~base:(cand_base view) ~self:s.cand_agg
      ~nbrs:view.nbrs ~get:(fun nb -> nb.cand_agg)
  with
  | Some cand_agg -> Some { s with cand_agg }
  | None -> None

let cut_rule (view : state View.t) =
  let s = view.self in
  match
    Aggregate.step ~compare:compare_cut ~n:view.n ~base:(cut_base view) ~self:s.cut_agg
      ~nbrs:view.nbrs ~get:(fun nb -> nb.cut_agg)
  with
  | Some cut_agg -> Some { s with cut_agg }
  | None -> None

(* Priority order. The switch hand-off (2.) outranks label repair so
   chains complete without racing the relabeling; chain initiation (5.)
   comes last. *)
let rule_order =
  [|
    tree_rule; flip_step; token_clear_step; size_rule; heavy_rule; seq_rule; frags_rule;
    cand_rule; cut_rule; initiate_step;
  |]

let rules (view : state View.t) =
  let rec go i =
    if i = Array.length rule_order then None
    else match rule_order.(i) view with Some _ as r -> r | None -> go (i + 1)
  in
  go 0

(* ------------------------------------------------------------------ *)

let tree_of _g sts =
  let parent = Array.map (fun s -> s.st.St_layer.parent) sts in
  if Tree.check_parents ~root:0 parent then Some (Tree.of_parents ~root:0 parent) else None

let is_legal g sts =
  match tree_of g sts with None -> false | Some t -> Mst.is_mst g t

let potential g sts =
  match tree_of g sts with
  | None -> None
  | Some t -> Some (FL.potential g t (FL.prover g t))

module P = struct
  type nonrec state = state

  let equal_state a b =
    St_layer.equal a.st b.st && a.size = b.size && a.heavy = b.heavy
    && Nca.equal a.seq b.seq && FL.equal a.frags b.frags
    && Aggregate.equal equal_cand a.cand_agg b.cand_agg
    && Aggregate.equal equal_cut a.cut_agg b.cut_agg
    && a.sw = b.sw

  let pp_state ppf s =
    Format.fprintf ppf "@[<h>%a size=%d heavy=%d seq=%a k=%d%s%s%s@]" St_layer.pp s.st s.size
      s.heavy Nca.pp s.seq (Array.length s.frags)
      (match s.cand_agg with Some _ -> " cand" | None -> "")
      (match s.cut_agg with Some _ -> " cut" | None -> "")
      (match s.sw with Some _ -> " sw" | None -> "")

  (* The widths are computed once per call; the formula is
     [St_layer.size_bits] + size + heavy + [Nca.size_bits] of every label
     + [FL.size_bits] + the optional aggregates and session, summed as
     before. *)
  let size_bits n s =
    let ib = Space.id_bits n and db = Space.dist_bits n and eb = Space.edge_bits n in
    let seq_bits l = Nca.length l * (ib + db) in
    let cand_bits c = eb + db + seq_bits c.su + seq_bits c.sv in
    let cut_bits c = cand_bits c.cand + eb + ib + seq_bits c.f_child_seq in
    let frags_bits = ref 0 in
    Array.iter
      (fun (en : FL.entry) ->
        let out_bits = match en.FL.out with None -> 1 | Some _ -> 1 + eb in
        frags_bits := !frags_bits + ib + (2 * db) + out_bits)
      s.frags;
    ib + ib + db + db + ib + seq_bits s.seq + !frags_bits
    + (match s.cand_agg with None -> 1 | Some a -> 1 + cand_bits a.Aggregate.value + db)
    + (match s.cut_agg with None -> 1 | Some a -> 1 + cut_bits a.Aggregate.value + db)
    + match s.sw with None -> 1 | Some sess -> 1 + cut_bits sess.cut + ib

  let initial _g v =
    {
      st = St_layer.self_root v;
      size = 1;
      heavy = -1;
      seq = Nca.of_root v;
      frags = [| { FL.frag = v; fdist = 0; out = None; odist = 0 } |];
      cand_agg = None;
      cut_agg = None;
      sw = None;
    }

  let random_state rng g _v =
    let n = Graph.n g in
    let random_seq () =
      Nca.of_pairs @@ Array.init
        (1 + Random.State.int rng 2)
        (fun _ -> (Random.State.int rng n, Random.State.int rng n))
    in
    let random_edge () =
      let a = Random.State.int rng n and b = Random.State.int rng n in
      (* At n = 1 the other endpoint is the non-node 1: register garbage,
         never a self-loop. For n >= 2, [max 2 n = n]. *)
      if a = b then E.make a ((b + 1) mod max 2 n) (1 + Random.State.int rng (n * n))
      else E.make a b (1 + Random.State.int rng (n * n))
    in
    let random_entry () =
      {
        FL.frag = Random.State.int rng n;
        fdist = Random.State.int rng n;
        out = (if Random.State.bool rng then Some (random_edge ()) else None);
        odist = Random.State.int rng n;
      }
    in
    let random_cand () =
      { lvl = Random.State.int rng 3; e = random_edge (); su = random_seq (); sv = random_seq () }
    in
    {
      st = St_layer.random rng ~n;
      size = Random.State.int rng (n + 1);
      heavy = Random.State.int rng (n + 1) - 1;
      seq = random_seq ();
      frags = Array.init (1 + Random.State.int rng 3) (fun _ -> random_entry ());
      cand_agg =
        (if Random.State.bool rng then None
         else Some { Aggregate.value = random_cand (); hops = Random.State.int rng n });
      cut_agg =
        (if Random.State.bool rng then None
         else
           Some
             {
               Aggregate.value =
                 {
                   cand = random_cand ();
                   f = random_edge ();
                   f_child = Random.State.int rng n;
                   f_child_seq = random_seq ();
                 };
               hops = Random.State.int rng n;
             });
      sw =
        (if Random.State.int rng 4 = 0 then
           Some
             {
               cut =
                 {
                   cand = random_cand ();
                   f = random_edge ();
                   f_child = Random.State.int rng n;
                   f_child_seq = random_seq ();
                 };
               next = Random.State.int rng (n + 1) - 1;
             }
         else None);
    }

  (* Normalize: a rule that reproduces the current register is not an
     enabled move (silence must be syntactic). *)
  let step view =
    match rules view with
    | Some s' when equal_state s' view.View.self -> None
    | r -> r
  let is_legal = is_legal
  let potential = potential

  (* Field-delta rule tag, in the priority order of [rules]: a reparent
     with a session write is the switching rule (flip or initiate — the
     delta cannot tell them apart), a session write alone is token
     bookkeeping, then the convergecast layers by first differing
     field. *)
  let classify =
    Some
      (fun old fresh ->
        if not (St_layer.equal old.st fresh.st) then
          if old.sw <> fresh.sw then "switch" else St_layer.classify old.st fresh.st
        else if old.sw <> fresh.sw then
          match fresh.sw with None -> "token-clear" | Some _ -> "token"
        else if old.size <> fresh.size then "size"
        else if old.heavy <> fresh.heavy then "heavy"
        else if not (Nca.equal old.seq fresh.seq) then "seq"
        else if not (FL.equal old.frags fresh.frags) then "frags"
        else if not (Aggregate.equal equal_cand old.cand_agg fresh.cand_agg) then "cand-agg"
        else if not (Aggregate.equal equal_cut old.cut_agg fresh.cut_agg) then "cut-agg"
        else "noop")
end

module Engine = Repro_runtime.Engine.Make (P)

(* Register codec: the nested, variable-length MST state serialized to a
   flat int array through the self-delimiting encodings of
   Repro_runtime.Codec. The MST register has no fixed width — [seq] can
   transiently hold up to tree-depth pairs — so this codec does not
   drive the packed engine; it grounds the bits accounting of
   PAPER_MAP.md and is round-trip-pinned by test_packed. *)
module Codec = struct
  module C = Repro_runtime.Codec

  type nonrec state = state

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

  let push_entry w (en : FL.entry) =
    C.push w en.FL.frag;
    C.push w en.FL.fdist;
    C.push_opt w push_edge en.FL.out;
    C.push w en.FL.odist

  let take_entry r =
    let frag = C.take r in
    let fdist = C.take r in
    let out = C.take_opt r take_edge in
    let odist = C.take r in
    { FL.frag; fdist; out; odist }

  let push_cand w c =
    C.push w c.lvl;
    push_edge w c.e;
    push_seq w c.su;
    push_seq w c.sv

  let take_cand r =
    let lvl = C.take r in
    let e = take_edge r in
    let su = take_seq r in
    let sv = take_seq r in
    { lvl; e; su; sv }

  let push_cut w c =
    push_cand w c.cand;
    push_edge w c.f;
    C.push w c.f_child;
    push_seq w c.f_child_seq

  let take_cut r =
    let cand = take_cand r in
    let f = take_edge r in
    let f_child = C.take r in
    let f_child_seq = take_seq r in
    { cand; f; f_child; f_child_seq }

  let push_agg push_v w (a : _ Aggregate.t) =
    push_v w a.Aggregate.value;
    C.push w a.Aggregate.hops

  let take_agg take_v r =
    let value = take_v r in
    let hops = C.take r in
    { Aggregate.value; hops }

  let pack ~n:_ (s : state) =
    let w = C.writer () in
    C.push w s.st.St_layer.parent;
    C.push w s.st.St_layer.root;
    C.push w s.st.St_layer.dist;
    C.push w s.size;
    C.push w s.heavy;
    push_seq w s.seq;
    C.push_array w push_entry s.frags;
    C.push_opt w (push_agg push_cand) s.cand_agg;
    C.push_opt w (push_agg push_cut) s.cut_agg;
    C.push_opt w
      (fun w (sess : session) ->
        push_cut w sess.cut;
        C.push w sess.next)
      s.sw;
    C.contents w

  let unpack ~n:_ a =
    let r = C.reader a in
    let parent = C.take r in
    let root = C.take r in
    let dist = C.take r in
    let size = C.take r in
    let heavy = C.take r in
    let seq = take_seq r in
    let frags = C.take_array r take_entry in
    let cand_agg = C.take_opt r (take_agg take_cand) in
    let cut_agg = C.take_opt r (take_agg take_cut) in
    let sw =
      C.take_opt r (fun r ->
          let cut = take_cut r in
          let next = C.take r in
          { cut; next })
    in
    C.expect_end r;
    { st = { St_layer.parent; root; dist }; size; heavy; seq; frags; cand_agg; cut_agg; sw }
end
