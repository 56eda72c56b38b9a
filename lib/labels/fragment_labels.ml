module Graph = Repro_graph.Graph
module Tree = Repro_graph.Tree
module Space = Repro_runtime.Space
module E = Graph.Edge

type entry = { frag : int; fdist : int; out : E.t option; odist : int }
type label = entry array

(* Structural equality without polymorphic [(=)]; a register compared
   with itself (the MST frags rule at its fixpoint) costs nothing. *)
let equal_entry a b =
  a.frag = b.frag && a.fdist = b.fdist && a.odist = b.odist
  && match (a.out, b.out) with
     | None, None -> true
     | Some x, Some y -> E.equal x y
     | _ -> false

let equal (a : label) (b : label) =
  a == b
  || Array.length a = Array.length b
     &&
     let rec go i = i = Array.length a || (equal_entry a.(i) b.(i) && go (i + 1)) in
     go 0

let pp ppf (l : label) =
  Format.fprintf ppf "@[<v>";
  Array.iteri
    (fun i e ->
      Format.fprintf ppf "L%d: frag=%d fdist=%d odist=%d out=%a@," (i + 1) e.frag e.fdist
        e.odist
        (fun ppf -> function Some e -> E.pp ppf e | None -> Format.fprintf ppf "⊥")
        e.out)
    l;
  Format.fprintf ppf "@]"

let size_bits n (l : label) =
  let entry_bits e =
    Space.id_bits n + (2 * Space.dist_bits n)
    + Space.opt (fun _ -> Space.edge_bits n) e.out
  in
  Array.fold_left (fun acc e -> acc + entry_bits e) 0 l

let levels (l : label) = Array.length l

(* BFS distances within the current fragment partition: sources is a list
   of nodes, edges are tree edges between same-[frag] nodes. *)
let fragment_bfs t frag sources =
  let n = Tree.n t in
  let dist = Array.make n max_int in
  let q = Queue.create () in
  List.iter
    (fun s ->
      dist.(s) <- 0;
      Queue.add s q)
    sources;
  let visit u v =
    if frag.(v) = frag.(u) && dist.(v) = max_int then begin
      dist.(v) <- dist.(u) + 1;
      Queue.add v q
    end
  in
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    let p = Tree.parent t u in
    if p <> -1 then visit u p;
    Array.iter (fun c -> visit u c) (Tree.children t u)
  done;
  dist

let prover g t =
  let n = Graph.n g in
  let tree_edges = Tree.tree_edges t g in
  let frag = Array.init n (fun v -> v) in
  let prev_frag = Array.make n (-1) in
  (* prev_frag.(v) = v's fragment id at the previous level; for level 1
     the "previous fragment" is v itself, anchoring fdist = 0 at v. *)
  Array.iteri (fun v _ -> prev_frag.(v) <- v) prev_frag;
  let acc = ref [] in
  let finished = ref false in
  while not !finished do
    (* Selected (minimum outgoing) tree edge per fragment. *)
    let best : (int, E.t) Hashtbl.t = Hashtbl.create 16 in
    List.iter
      (fun (e : E.t) ->
        if frag.(e.u) <> frag.(e.v) then begin
          let update f =
            match Hashtbl.find_opt best f with
            | Some cur when E.compare cur e <= 0 -> ()
            | _ -> Hashtbl.replace best f e
          in
          update frag.(e.u);
          update frag.(e.v)
        end)
      tree_edges;
    (* Anchors: nodes whose previous-level fragment id survived. *)
    let anchors =
      List.init n Fun.id |> List.filter (fun v -> prev_frag.(v) = frag.(v))
    in
    let fdist = fragment_bfs t frag anchors in
    if Hashtbl.length best = 0 then begin
      (* Single fragment spanning the tree: top level. *)
      acc :=
        Array.init n (fun v -> { frag = frag.(v); fdist = fdist.(v); out = None; odist = 0 })
        :: !acc;
      finished := true
    end
    else begin
      let odist = Array.make n 0 in
      (* Distance to the inside endpoint of the fragment's selected edge;
         computed per fragment via a multi-source BFS from all inside
         endpoints (each fragment has exactly one). *)
      let inside_endpoints =
        Hashtbl.fold
          (fun f (e : E.t) l ->
            let inside = if frag.(e.u) = f then e.u else e.v in
            inside :: l)
          best []
      in
      let od = fragment_bfs t frag inside_endpoints in
      Array.iteri (fun v _ -> odist.(v) <- od.(v)) odist;
      acc :=
        Array.init n (fun v ->
            {
              frag = frag.(v);
              fdist = fdist.(v);
              out = Hashtbl.find_opt best frag.(v);
              odist = odist.(v);
            })
        :: !acc;
      (* Merge along selected edges. *)
      let uf = Repro_graph.Union_find.create n in
      for v = 0 to n - 1 do
        let p = Tree.parent t v in
        if p <> -1 && frag.(p) = frag.(v) then ignore (Repro_graph.Union_find.union uf v p)
      done;
      Hashtbl.iter (fun _ (e : E.t) -> ignore (Repro_graph.Union_find.union uf e.u e.v)) best;
      let min_id = Hashtbl.create 16 in
      for v = 0 to n - 1 do
        let r = Repro_graph.Union_find.find uf v in
        match Hashtbl.find_opt min_id r with
        | Some m when m <= v -> ()
        | _ -> Hashtbl.replace min_id r v
      done;
      for v = 0 to n - 1 do
        prev_frag.(v) <- frag.(v);
        frag.(v) <- Hashtbl.find min_id (Repro_graph.Union_find.find uf v)
      done
    end
  done;
  let per_level = Array.of_list (List.rev !acc) in
  let k = Array.length per_level in
  Array.init n (fun v -> Array.init k (fun i -> per_level.(i).(v)))

let fragments_at labels ~level =
  let tbl = Hashtbl.create 16 in
  Array.iteri
    (fun v (l : label) ->
      let f = l.(level).frag in
      Hashtbl.replace tbl f (v :: (Option.value ~default:[] (Hashtbl.find_opt tbl f))))
    labels;
  Hashtbl.fold (fun f vs acc -> (f, List.sort compare vs) :: acc) tbl []
  |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Local verification *)

type nbr = { nid : int; nweight : int; ntree : bool; nlabel : label }

let neighbors_of (ctx : label Pls.ctx) =
  Array.to_list
    (Array.init (Array.length ctx.nbr_ids) (fun i ->
         {
           nid = ctx.nbr_ids.(i);
           nweight = ctx.nbr_weights.(i);
           ntree = ctx.nbr_parents.(i) = ctx.id || ctx.parent = ctx.nbr_ids.(i);
           nlabel = ctx.nbr_labels.(i);
         }))

let verify_gen ~check_graph_minimality (ctx : label Pls.ctx) =
  let l = ctx.label in
  let k = Array.length l in
  let nbrs = neighbors_of ctx in
  let tree_nbrs = List.filter (fun nb -> nb.ntree) nbrs in
  let incident_tree_edges =
    List.map (fun nb -> (nb, E.make ctx.id nb.nid nb.nweight)) tree_nbrs
  in
  let ok = ref (k >= 1 && k <= Space.log2_ceil (max 2 ctx.n) + 1) in
  (* Level-count agreement with every neighbor. *)
  List.iter (fun nb -> if Array.length nb.nlabel <> k then ok := false) nbrs;
  if !ok then begin
    (* Level 1 (index 0): singleton fragments. *)
    let e0 = l.(0) in
    if e0.frag <> ctx.id || e0.fdist <> 0 then ok := false;
    (match e0.out with
    | None -> if k <> 1 || incident_tree_edges <> [] then ok := false
    | Some e ->
        if e0.odist <> 0 then ok := false;
        let mine =
          List.fold_left
            (fun best (_, ie) ->
              match best with
              | None -> Some ie
              | Some b -> if E.compare ie b < 0 then Some ie else best)
            None incident_tree_edges
        in
        (match mine with
        | Some m when E.equal m e -> ()
        | _ -> ok := false));
    for i = 0 to k - 1 do
      if !ok then begin
        let ei = l.(i) in
        (* frag ids shrink as fragments merge and never exceed own id. *)
        if ei.frag < 0 || ei.frag > ctx.id then ok := false;
        if i > 0 && ei.frag > l.(i - 1).frag then ok := false;
        if ei.fdist < 0 || ei.fdist > ctx.n || ei.odist < 0 || ei.odist > ctx.n then
          ok := false;
        (* fdist anchoring: 0 ⇒ previous-level id survived; >0 ⇒ some
           fragment-mate tree neighbor is one hop closer. *)
        let prev_frag = if i = 0 then ctx.id else l.(i - 1).frag in
        if ei.fdist = 0 then begin
          if ei.frag <> prev_frag then ok := false
        end
        else if
          not
            (List.exists
               (fun nb ->
                 let ne = nb.nlabel.(i) in
                 ne.frag = ei.frag && ne.fdist = ei.fdist - 1)
               tree_nbrs)
        then ok := false;
        (* Fragment-mate tree neighbors agree on [out]; merge rule across
           fragment boundaries. *)
        List.iter
          (fun (nb, ie) ->
            let ne = nb.nlabel.(i) in
            if ne.frag = ei.frag then begin
              if ne.out <> ei.out then ok := false;
              if i + 1 < k && nb.nlabel.(i + 1).frag <> l.(i + 1).frag then ok := false
            end
            else begin
              (* Unique tree edge between adjacent fragments: merged at
                 the next level iff this very edge is selected by one
                 side. *)
              let selected =
                (match ei.out with Some e -> E.equal e ie | None -> false)
                || (match ne.out with Some e -> E.equal e ie | None -> false)
              in
              if i + 1 < k then begin
                let same_next = nb.nlabel.(i + 1).frag = l.(i + 1).frag in
                if same_next <> selected then ok := false
              end
              else if i + 1 = k then
                (* Top level: no outgoing tree edges may remain. *)
                ok := false
            end)
          incident_tree_edges;
        (match ei.out with
        | None ->
            (* Only the top level may have no outgoing edge. *)
            if i <> k - 1 then ok := false
        | Some e ->
            if i = k - 1 then ok := false
            else begin
              (* odist chain toward the inside endpoint. *)
              if ei.odist = 0 then begin
                if not (E.mem e ctx.id) then ok := false
                else begin
                  (* The selected edge leaves my fragment through me: it
                     must be one of my real tree edges, and its other
                     endpoint must be in a different fragment. *)
                  match
                    List.find_opt (fun (nb, ie) -> E.equal ie e && nb.nid = E.other e ctx.id)
                      incident_tree_edges
                  with
                  | None -> ok := false
                  | Some (nb, _) -> if nb.nlabel.(i).frag = ei.frag then ok := false
                end
              end
              else if
                not
                  (List.exists
                     (fun nb ->
                       let ne = nb.nlabel.(i) in
                       ne.frag = ei.frag && ne.odist = ei.odist - 1
                       && ne.out = ei.out)
                     tree_nbrs)
              then ok := false;
              (* Minimality among my own outgoing tree edges. *)
              List.iter
                (fun (nb, ie) ->
                  if nb.nlabel.(i).frag <> ei.frag && E.compare ie e < 0 then ok := false)
                incident_tree_edges;
              (* Cut rule against all incident graph edges (MST facet). *)
              if check_graph_minimality then
                List.iter
                  (fun nb ->
                    if nb.nlabel.(i).frag <> ei.frag then begin
                      let ge = E.make ctx.id nb.nid nb.nweight in
                      if E.compare ge e < 0 then ok := false
                    end)
                  nbrs
            end)
      end
    done
  end;
  !ok

let verify ctx = verify_gen ~check_graph_minimality:true ctx
let verify_trace ctx = verify_gen ~check_graph_minimality:false ctx

(* ------------------------------------------------------------------ *)
(* Global helpers (potential, candidates) *)

let min_outgoing g labels ~level ~frag =
  Graph.fold_edges
    (fun e best ->
      let fu = labels.(e.E.u).(level).frag and fv = labels.(e.E.v).(level).frag in
      if (fu = frag || fv = frag) && fu <> fv then
        match best with
        | Some b when E.compare b e <= 0 -> best
        | _ -> Some e
      else best)
    None g

let potential g _t labels =
  let n = Graph.n g in
  if n = 0 then 0
  else begin
    let k = Array.length labels.(0) in
    (* φ_x = deepest level prefix whose outgoing edges are G-minimal;
       G-minimality is a per-fragment fact, so compute it per level per
       fragment. *)
    let level_ok = Array.make_matrix k n true in
    for i = 0 to k - 1 do
      let checked = Hashtbl.create 16 in
      for x = 0 to n - 1 do
        let e = labels.(x).(i) in
        let okf =
          match Hashtbl.find_opt checked e.frag with
          | Some b -> b
          | None ->
              let b =
                match e.out with
                | None -> true
                | Some out -> (
                    match min_outgoing g labels ~level:i ~frag:e.frag with
                    | Some m -> E.equal m out
                    | None -> false)
              in
              Hashtbl.replace checked e.frag b;
              b
        in
        level_ok.(i).(x) <- okf
      done
    done;
    let phi_x x =
      let rec go i = if i < k && level_ok.(i).(x) then go (i + 1) else i in
      go 0
    in
    let sum = ref 0 in
    for x = 0 to n - 1 do
      sum := !sum + phi_x x
    done;
    (k * n) - !sum
  end

let violation_level g labels =
  let n = Array.length labels in
  if n = 0 then None
  else begin
    let k = Array.length labels.(0) in
    let result = ref None in
    for i = k - 1 downto 0 do
      let seen = Hashtbl.create 16 in
      for x = 0 to n - 1 do
        let e = labels.(x).(i) in
        if not (Hashtbl.mem seen e.frag) then begin
          Hashtbl.add seen e.frag ();
          match e.out with
          | None -> ()
          | Some out -> (
              match min_outgoing g labels ~level:i ~frag:e.frag with
              | Some m when not (E.equal m out) -> result := Some i
              | _ -> ())
        end
      done
    done;
    !result
  end

let accepts_tree g t = Pls.accepts g ~parent:(Tree.parents t) ~labels:(prover g t) verify
