module Json = Metrics.Json
module ISet = Set.Make (Int)

(* ------------------------------------------------------------------ *)
(* Analysis *)

type cone = {
  injection_round : int;
  injected : int list;
  attributed_moves : int;
  cone_nodes : int list;
  cone_radius : int option;
}

type report = {
  header : (string * Json.t) list;
  total_moves : int;
  total_faults : int;
  total_churns : int;
  total_rounds : int;
  distinct_movers : int;
  rule_breakdown : (string * int) list;
  phi_milestones : (int * int) list;
  hot_nodes : (int * int) list;
  cause_edges : int;
  root_spontaneous : int;
  fault_attributed : int;
  max_chain : int;
  cones : cone list;
}

(* Adjacency from the meta header's ["edges"] list ([[u, v, w], ...]),
   for measured cone radii. Endpoints must lie in [0, n), n being the
   header's ["n"] when present and the largest endpoint + 1 otherwise;
   a malformed list gives no cone radii. *)
let adjacency_of_meta meta =
  let ( let* ) = Option.bind in
  let* fields = meta in
  let* edges = match List.assoc_opt "edges" fields with Some (Json.List l) -> Some l | _ -> None in
  let pairs =
    List.filter_map
      (function
        | Json.List (Json.Int u :: Json.Int v :: _) when u >= 0 && v >= 0 -> Some (u, v)
        | _ -> None)
      edges
  in
  let n =
    match List.assoc_opt "n" fields with
    | Some (Json.Int n) -> n
    | _ -> List.fold_left (fun acc (u, v) -> max acc (max u v + 1)) 0 pairs
  in
  let in_range (u, v) = u < n && v < n in
  if n < 0 || List.compare_lengths pairs edges <> 0 || not (List.for_all in_range pairs) then None
  else begin
    let adj = Array.make n [] in
    List.iter
      (fun (u, v) ->
        adj.(u) <- v :: adj.(u);
        adj.(v) <- u :: adj.(v))
      pairs;
    Some adj
  end

let bfs_from adj sources =
  let n = Array.length adj in
  let dist = Array.make n (-1) in
  let q = Queue.create () in
  List.iter
    (fun s ->
      if s >= 0 && s < n && dist.(s) < 0 then begin
        dist.(s) <- 0;
        Queue.push s q
      end)
    sources;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    List.iter
      (fun v ->
        if dist.(v) < 0 then begin
          dist.(v) <- dist.(u) + 1;
          Queue.push v q
        end)
      adj.(u)
  done;
  dist

let analyze ?(top = 10) meta (events : Events.event list) =
  let total_moves = ref 0 and total_faults = ref 0 and total_churns = ref 0 in
  let total_rounds = ref 0 in
  let see_round r = if r > !total_rounds then total_rounds := r in
  let node_counts = Hashtbl.create 64 in
  let rule_counts = Hashtbl.create 16 in
  let bump tbl k =
    match Hashtbl.find_opt tbl k with
    | Some c -> incr c
    | None -> Hashtbl.add tbl k (ref 1)
  in
  let phi_obs = ref [] in
  (* Activation DAG: per-event transitive injection sets and chain
     depth. Faults and churn events are DAG sources alike, and the
     sources of one round form one injection. *)
  let inj_index = Hashtbl.create 8 in
  let inj_rounds = ref [] in
  let injected = Hashtbl.create 8 in
  let origin = Hashtbl.create 256 in
  let depth = Hashtbl.create 256 in
  let cause_edges = ref 0 in
  let root_spontaneous = ref 0 in
  let fault_attributed = ref 0 in
  let max_chain = ref 0 in
  let per_inj_moves = Hashtbl.create 8 in
  let source id ~node ~round =
    see_round round;
    let i =
      match Hashtbl.find_opt inj_index round with
      | Some i -> i
      | None ->
          let i = List.length !inj_rounds in
          Hashtbl.add inj_index round i;
          inj_rounds := round :: !inj_rounds;
          Hashtbl.add injected i (ref ISet.empty);
          i
    in
    let nodes = Hashtbl.find injected i in
    nodes := ISet.add node !nodes;
    Hashtbl.replace origin id (ISet.singleton i)
  in
  let move id ~node ~round ~rule ~causes =
    incr total_moves;
    see_round round;
    bump node_counts node;
    bump rule_counts (Option.value rule ~default:"?");
    cause_edges := !cause_edges + List.length causes;
    let o =
      List.fold_left
        (fun acc c ->
          match Hashtbl.find_opt origin c with Some s -> ISet.union acc s | None -> acc)
        ISet.empty causes
    in
    let d =
      1
      + List.fold_left
          (fun acc c ->
            match Hashtbl.find_opt depth c with Some d -> max acc d | None -> acc)
          0 causes
    in
    Hashtbl.replace origin id o;
    Hashtbl.replace depth id d;
    if d > !max_chain then max_chain := d;
    if ISet.is_empty o then incr root_spontaneous
    else begin
      incr fault_attributed;
      ISet.iter
        (fun i ->
          let c, nodes =
            match Hashtbl.find_opt per_inj_moves i with
            | Some x -> x
            | None ->
                let x = (ref 0, ref ISet.empty) in
                Hashtbl.add per_inj_moves i x;
                x
          in
          incr c;
          nodes := ISet.add node !nodes)
        o
    end
  in
  List.iter
    (fun ({ id; kind } : Events.event) ->
      match kind with
      | Events.Move { node; round; rule; causes; _ } -> move id ~node ~round ~rule ~causes
      | Events.Fault { node; round } ->
          incr total_faults;
          source id ~node ~round
      | Events.Churn { node; round; _ } ->
          incr total_churns;
          source id ~node ~round
      | Events.Round { round; phi; _ } -> (
          see_round round;
          match phi with Some p -> phi_obs := (round, p) :: !phi_obs | None -> ()))
    events;
  let sorted_counts tbl =
    Hashtbl.fold (fun k c acc -> (k, !c) :: acc) tbl []
    |> List.sort (fun (ka, ca) (kb, cb) ->
           match compare cb ca with 0 -> compare ka kb | c -> c)
  in
  (* Φ milestones: the first observed value, each crossing of 1/2, 1/4,
     1/10, 1/100 of it, zero, and the last observed value. *)
  let phi_milestones =
    match List.rev !phi_obs with
    | [] -> []
    | (r0, p0) :: rest ->
        let thresholds = ref [ p0 / 2; p0 / 4; p0 / 10; p0 / 100; 0 ] in
        let acc = ref [ (r0, p0) ] in
        List.iter
          (fun (r, p) ->
            let rec cross () =
              match !thresholds with
              | th :: tl when p <= th ->
                  thresholds := tl;
                  if not (List.mem (r, p) !acc) then acc := (r, p) :: !acc;
                  cross ()
              | _ -> ()
            in
            cross ())
          rest;
        (match !phi_obs with
        | (rl, pl) :: _ when not (List.mem (rl, pl) !acc) -> acc := (rl, pl) :: !acc
        | _ -> ());
        List.rev !acc
  in
  let adj = adjacency_of_meta meta in
  let cones =
    List.mapi
      (fun i r ->
        let injected = ISet.elements !(Hashtbl.find injected i) in
        let count, nodes =
          match Hashtbl.find_opt per_inj_moves i with
          | Some (c, ns) -> (!c, ISet.elements !ns)
          | None -> (0, [])
        in
        let cone_radius =
          match (adj, nodes) with
          | Some adj, _ :: _ ->
              let dist = bfs_from adj injected in
              Some
                (List.fold_left
                   (fun acc v ->
                     if v < Array.length dist && dist.(v) >= 0 then max acc dist.(v) else acc)
                   0 nodes)
          | _ -> None
        in
        {
          injection_round = r;
          injected;
          attributed_moves = count;
          cone_nodes = nodes;
          cone_radius;
        })
      (List.rev !inj_rounds)
  in
  {
    header = Option.value meta ~default:[];
    total_moves = !total_moves;
    total_faults = !total_faults;
    total_churns = !total_churns;
    total_rounds = !total_rounds;
    distinct_movers = Hashtbl.length node_counts;
    rule_breakdown = sorted_counts rule_counts;
    phi_milestones;
    hot_nodes = List.filteri (fun i _ -> i < top) (sorted_counts node_counts);
    cause_edges = !cause_edges;
    root_spontaneous = !root_spontaneous;
    fault_attributed = !fault_attributed;
    max_chain = !max_chain;
    cones;
  }

(* ------------------------------------------------------------------ *)
(* Rendering *)

let header_str r =
  let s k = match List.assoc_opt k r.header with Some (Json.Str s) -> Some s | _ -> None in
  let i k =
    match List.assoc_opt k r.header with Some (Json.Int v) -> Some (string_of_int v) | _ -> None
  in
  String.concat " "
    (List.filter_map Fun.id
       [
         s "algo";
         Option.map (fun g -> "on " ^ g) (s "graph");
         Option.map (fun n -> "n=" ^ n) (i "n");
         Option.map (fun sd -> "seed=" ^ sd) (i "seed");
         Option.map (fun sc -> "sched=" ^ sc) (s "sched");
       ])

let pp_text ppf r =
  let pf fmt = Format.fprintf ppf fmt in
  pf "@[<v>";
  let hdr = header_str r in
  if hdr <> "" then pf "trace: %s@," hdr;
  pf "moves: %d over %d rounds by %d nodes; faults: %d%s@," r.total_moves r.total_rounds
    r.distinct_movers r.total_faults
    (if r.total_churns > 0 then Printf.sprintf "; churn events: %d" r.total_churns else "");
  if r.rule_breakdown <> [] then begin
    pf "@,per-rule breakdown:@,";
    List.iter
      (fun (rule, c) ->
        pf "  %-12s %6d  (%.1f%%)@," rule c
          (100. *. float_of_int c /. float_of_int (max 1 r.total_moves)))
      r.rule_breakdown
  end;
  if r.phi_milestones <> [] then begin
    pf "@,potential milestones (round, phi):@,";
    List.iter (fun (round, phi) -> pf "  round %-6d phi=%d@," round phi) r.phi_milestones
  end;
  if r.hot_nodes <> [] then begin
    pf "@,hottest nodes:@,";
    List.iter (fun (v, c) -> pf "  node %-5d %6d moves@," v c) r.hot_nodes
  end;
  pf "@,activation DAG: %d cause edges, longest chain %d@," r.cause_edges r.max_chain;
  pf "attribution: %d fault-attributed, %d root-spontaneous@," r.fault_attributed
    r.root_spontaneous;
  if r.cones <> [] then begin
    pf "@,fault cones:@,";
    List.iter
      (fun c ->
        pf "  round %-6d inject [%s]: %d moves, %d nodes%s@," c.injection_round
          (String.concat "," (List.map string_of_int c.injected))
          c.attributed_moves (List.length c.cone_nodes)
          (match c.cone_radius with
          | Some rr -> Printf.sprintf ", cone radius %d" rr
          | None -> ""))
      r.cones
  end;
  pf "@]"

let to_text r = Format.asprintf "%a" pp_text r

let html_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '&' -> Buffer.add_string buf "&amp;"
      | '"' -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Φ-by-round sparkline as an inline SVG polyline. *)
let phi_svg r =
  match r.phi_milestones with
  | [] | [ _ ] -> ""
  | pts ->
      let w = 560. and h = 120. and pad = 8. in
      let rmax = List.fold_left (fun a (rr, _) -> max a rr) 1 pts in
      let pmax = List.fold_left (fun a (_, p) -> max a p) 1 pts in
      let coord (rr, p) =
        let x = pad +. (float_of_int rr /. float_of_int (max 1 rmax) *. (w -. (2. *. pad))) in
        let y = h -. pad -. (float_of_int p /. float_of_int pmax *. (h -. (2. *. pad))) in
        Printf.sprintf "%.1f,%.1f" x y
      in
      Printf.sprintf
        "<svg viewBox=\"0 0 %.0f %.0f\" width=\"%.0f\" height=\"%.0f\"\n\
        \  role=\"img\" aria-label=\"potential trajectory\">\n\
         <polyline fill=\"none\" stroke=\"#27638f\" stroke-width=\"2\" points=\"%s\"/>\n\
         </svg>"
        w h w h
        (String.concat " " (List.map coord pts))

let to_html r =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add
    "<!DOCTYPE html>\n\
     <html lang=\"en\"><head><meta charset=\"utf-8\">\n\
     <title>convergence report</title>\n\
     <style>\n\
     body{font:14px/1.5 system-ui,sans-serif;max-width:720px;margin:2rem auto;color:#222}\n\
     h1{font-size:1.3rem}h2{font-size:1.05rem;margin-top:1.6rem}\n\
     table{border-collapse:collapse;margin:.5rem 0}\n\
     td,th{padding:.15rem .6rem;text-align:right;border-bottom:1px solid #ddd}\n\
     th{text-align:left}td:first-child{text-align:left}\n\
     .bar{background:#27638f;height:10px;display:inline-block;vertical-align:middle}\n\
     .muted{color:#777}\n\
     </style></head><body>\n";
  add "<h1>Convergence report</h1>\n";
  let hdr = header_str r in
  if hdr <> "" then add "<p class=\"muted\">%s</p>\n" (html_escape hdr);
  add "<p>%d moves over %d rounds by %d distinct nodes; %d fault events%s.</p>\n" r.total_moves
    r.total_rounds r.distinct_movers r.total_faults
    (if r.total_churns > 0 then Printf.sprintf "; %d churn events" r.total_churns else "");
  if r.rule_breakdown <> [] then begin
    add "<h2>Per-rule breakdown</h2>\n<table><tr><th>rule</th><th>moves</th><th></th></tr>\n";
    let mx = List.fold_left (fun a (_, c) -> max a c) 1 r.rule_breakdown in
    List.iter
      (fun (rule, c) ->
        add "<tr><td>%s</td><td>%d</td><td><span class=\"bar\" style=\"width:%dpx\"></span></td></tr>\n"
          (html_escape rule) c (c * 220 / mx))
      r.rule_breakdown;
    add "</table>\n"
  end;
  if r.phi_milestones <> [] then begin
    add "<h2>Potential trajectory</h2>\n%s\n<table><tr><th>round</th><th>&Phi;</th></tr>\n"
      (phi_svg r);
    List.iter (fun (round, phi) -> add "<tr><td>%d</td><td>%d</td></tr>\n" round phi)
      r.phi_milestones;
    add "</table>\n"
  end;
  if r.hot_nodes <> [] then begin
    add "<h2>Hottest nodes</h2>\n<table><tr><th>node</th><th>moves</th></tr>\n";
    List.iter (fun (v, c) -> add "<tr><td>%d</td><td>%d</td></tr>\n" v c) r.hot_nodes;
    add "</table>\n"
  end;
  add "<h2>Activation DAG</h2>\n<p>%d cause edges; longest chain %d.<br>%d moves fault-attributed, %d root-spontaneous.</p>\n"
    r.cause_edges r.max_chain r.fault_attributed r.root_spontaneous;
  if r.cones <> [] then begin
    add
      "<h2>Fault cones</h2>\n\
       <table><tr><th>injection round</th><th>nodes</th><th>moves</th><th>reached</th><th>radius</th></tr>\n";
    List.iter
      (fun c ->
        add "<tr><td>%d</td><td>%s</td><td>%d</td><td>%d</td><td>%s</td></tr>\n"
          c.injection_round
          (html_escape (String.concat "," (List.map string_of_int c.injected)))
          c.attributed_moves (List.length c.cone_nodes)
          (match c.cone_radius with Some rr -> string_of_int rr | None -> "&mdash;"))
      r.cones;
    add "</table>\n"
  end;
  add "</body></html>\n";
  Buffer.contents buf
