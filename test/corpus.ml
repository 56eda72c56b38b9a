(* The golden corpus: one line per cell on stdout, diffed against
   test/corpus.expected by `dune runtest`. It pins what the suite
   used to pin through frozen copies of old code, as data:

   - graphs: every [Generators.by_name] family and a near-complete
     [random_connected] at small and medium n, three seeds each (one
     line per family and n), plus the two n = 10^5 networks of the
     stabilize-big benchmark: a digest of what a caller observes (edge
     order, CSR arrays, total weight) with m, or the exact
     [Invalid_argument] message, and the generator's next RNG draw;
   - edge lists: the outcome of [Graph.of_edges] and
     [Graph.of_edge_list] on noisy edge lists (out-of-range endpoints,
     duplicates either way round, self-loops);
   - trajectories: every registered builder on the engine the registry
     picks for it, under every daemon of the extended roster, from the
     designated and an adversarial start, run to its limits and cut
     after 25 writes, with two nodes corrupted at round 2: the run's
     counts, a digest of its moves (node, rule tag and the written
     register's codec words, or its Marshal bytes without a codec) and
     a digest of the series the event sink folds;
   - tie trajectories: the same cells for a toy aggregate whose order
     sees only [value / 2], so a node equidistant from the two sources
     adopts whichever [Aggregate.target]'s tie rule picks. The shipped
     builders order their aggregates totally, where equal-hops ties
     between equal values cannot show in any register.

   A deliberate change regenerates the file with `dune promote`; dune's
   diff names the cells that moved. *)

open Repro_graph
open Repro_runtime
module E = Graph.Edge
module Aggregate = Repro_core.Aggregate
module Builders = Repro_campaign.Builders

let digest s = String.sub (Digest.to_hex (Digest.string s)) 0 16

(* A construction's observable result, or the message it was rejected
   with. *)
let outcome build =
  match build () with
  | g ->
      Printf.sprintf "m=%d w=%d csr=%s" (Graph.m g) (Graph.total_weight g)
        (digest
           (Marshal.to_string
              (Graph.n g, Graph.edges g, Graph.csr_row g, Graph.csr_col g, Graph.csr_wgt g)
              [ Marshal.No_sharing ]))
  | exception Invalid_argument msg -> Printf.sprintf "Invalid_argument %S" msg

let generation gen key =
  let st = Random.State.make key in
  let o = outcome (fun () -> gen st) in
  Printf.sprintf "%s next=%d" o (Random.State.bits st)

let graphs () =
  let families =
    List.map
      (fun name -> (name, fun _ -> Option.get (Generators.by_name name)))
      Generators.all_names
    @ [
        ( "random-dense",
          (* m past n(n-1)/2 (the count is clamped), at it, and just under *)
          fun s st ~n ->
            Generators.random_connected st ~n
              ~m:((n * (n - 1) / 2) + (n / 2) - ((s - 1) * n / 2)) );
      ]
  in
  List.iter
    (fun (name, gen) ->
      List.iter
        (fun n ->
          Printf.printf "graph %s n=%d: %s\n" name n
            (String.concat " | "
               (List.map (fun s -> generation (fun st -> gen s st ~n) [| s |]) [ 1; 2; 3 ])))
        [ 1; 2; 3; 5; 8; 13; 40; 150; 300 ])
    families;
  let n = 100_000 in
  List.iter
    (fun tag ->
      Printf.printf "graph random_connected n=%d m=%d [|0xE57; %d|]: %s\n" n (2 * n) tag
        (generation
           (fun st -> Generators.random_connected st ~n ~m:(2 * n))
           [| 0xE57; tag |]))
    [ 1300 + n; 1400 + n ]

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

(* An edge list from [(n, seed, noise)]: a random simple graph's edges,
   randomly oriented, in random order, with random (possibly repeated)
   weights; then [noise] offenders inserted at random positions, each an
   out-of-range edge (either end, either side), a duplicate of an edge
   already in the list (either orientation) or a self-loop. *)
let edge_case (n, s, noise) =
  let st = Random.State.make [| s; 0xED6E |] in
  let nodes = max n 1 in
  let pairs = ref [] in
  for u = 0 to nodes - 1 do
    for v = u + 1 to nodes - 1 do
      pairs := (u, v) :: !pairs
    done
  done;
  let pairs = Array.of_list !pairs in
  shuffle st pairs;
  let flip (u, v, w) = if Random.State.bool st then (v, u, w) else (u, v, w) in
  let es =
    ref
      (Array.to_list
         (Array.map
            (fun (u, v) -> flip (u, v, Random.State.int st 50))
            (Array.sub pairs 0 (Random.State.int st (Array.length pairs + 1)))))
  in
  for _ = 1 to noise do
    let offender =
      match Random.State.int st 3 with
      | 0 ->
          let far =
            if Random.State.bool st then nodes + Random.State.int st 3
            else -1 - Random.State.int st 3
          in
          flip (Random.State.int st nodes, far, Random.State.int st 50)
      | 1 when !es <> [] ->
          let u, v, _ = List.nth !es (Random.State.int st (List.length !es)) in
          flip (u, v, Random.State.int st 50)
      | _ ->
          let x = Random.State.int st nodes in
          (x, x, Random.State.int st 50)
    in
    let at = Random.State.int st (List.length !es + 1) in
    es :=
      List.filteri (fun i _ -> i < at) !es @ (offender :: List.filteri (fun i _ -> i >= at) !es)
  done;
  !es

let edge_lists () =
  List.iter
    (fun n ->
      List.iter
        (fun noise ->
          List.iter
            (fun s ->
              let es = edge_case (n, s, noise) in
              Printf.printf "edges n=%d noise=%d seed=%d: of_edges %s; of_edge_list %s\n" n
                noise s
                (outcome (fun () -> Graph.of_edges n es))
                (outcome (fun () ->
                     Graph.of_edge_list n (List.map (fun (u, v, w) -> E.make u v w) es))))
            [ 1; 2; 3; 4 ])
        [ 0; 1; 2; 3 ])
    [ 0; 1; 2; 3; 5; 8; 13; 24 ]

let trajectories_of (type s) (e : s Builders.entry) (label, sd, g) =
  let module En = (val Builders.engine e) in
  let module P = (val e.Builders.protocol) in
  let n = Graph.n g in
  let words : s -> string =
    match e.Builders.packed with
    | Some (module K) ->
        fun s -> String.concat "," (Array.to_list (Array.map string_of_int (K.pack ~n s)))
    | None -> fun s -> Marshal.to_string s [ Marshal.No_sharing ]
  in
  let frng = Random.State.make [| sd; 9 |] in
  let faults = List.map (fun v -> (v, P.random_state frng g v)) [ 0; n - 1 ] in
  let adversary ~round _ = if round = 2 then faults else [] in
  let cell (sched_name, sched) ~adversarial ~cut =
    let init =
      if adversarial then En.adversarial (Random.State.make [| sd; 7 |]) g else En.initial g
    in
    let moves = Buffer.create 4096 and steps = ref 0 in
    let on_step v sts =
      incr steps;
      Printf.bprintf moves "%d:%s;" v (words sts.(v))
    in
    let stop_when () = cut && !steps >= 25 in
    let sink = Events.ring ~record_phi:true () in
    let r =
      En.run ~max_steps:2_000 ~max_rounds:200 ~on_step ~adversary ~stop_when ~events:sink g
        sched
        (Random.State.make [| sd; 31 |])
        ~init
    in
    List.iter
      (fun (ev : Events.event) ->
        match ev.kind with
        | Move m -> Printf.bprintf moves "%d/%s;" m.node (Option.value m.rule ~default:"")
        | _ -> ())
      (Events.events sink);
    Printf.printf
      "traj %s %s %s %s %s: steps=%d rounds=%d max_bits=%d silent=%b legal=%b moves=%s \
       series=%s\n"
      e.Builders.name label sched_name
      (if adversarial then "adversarial" else "designated")
      (if cut then "cut" else "uncut")
      r.En.steps r.En.rounds r.En.max_bits r.En.silent r.En.legal
      (digest (Buffer.contents moves))
      (digest (Metrics.Json.to_string (Events.series_json sink)))
  in
  List.iter
    (fun sched ->
      List.iter
        (fun (adversarial, cut) -> cell sched ~adversarial ~cut)
        [ (false, false); (true, false); (false, true); (true, true) ])
    Scheduler.extended

(* Nodes 0 and 1 publish the values 0 and 1, which compare equal; every
   other node adopts the nearer of them, and a node at equal hops from
   both keeps its first neighbour's (the lower id's) value. Legal = the
   fixpoint everywhere. *)
module Tie = struct
  type state = int Aggregate.t option

  let compare a b = Int.compare (a / 2) (b / 2)
  let equal_state = Aggregate.equal Int.equal

  let pp_state ppf = function
    | None -> Format.pp_print_string ppf "-"
    | Some { Aggregate.value; hops } -> Format.fprintf ppf "%d@%d" value hops

  let size_bits n = Space.opt (fun _ -> 1 + Space.dist_bits n)
  let initial _ _ = None

  let random_state st g _ =
    if Random.State.bool st then None
    else Some { Aggregate.value = Random.State.int st 4; hops = Random.State.int st (Graph.n g) }

  let base v = if v < 2 then Some v else None

  let step (view : state View.t) =
    Aggregate.step ~compare ~n:view.n ~base:(base view.id) ~self:view.self ~nbrs:view.nbrs
      ~get:Fun.id

  let is_legal g sts =
    List.for_all
      (fun v ->
        let nbrs = Array.map (fun (u, _) -> sts.(u)) (Graph.neighbors g v) in
        Aggregate.step ~compare ~n:(Graph.n g) ~base:(base v) ~self:sts.(v) ~nbrs ~get:Fun.id
        = None)
      (List.init (Graph.n g) Fun.id)

  let potential _ _ = None
  let classify = None
end

let tie =
  {
    Builders.name = "aggregate-tie";
    protocol = (module Tie);
    tree = None;
    packed = None;
    cheap_phi = false;
    note = (fun ~adversarial:_ _ _ -> "");
  }

let trajectories () =
  let graphs =
    List.mapi
      (fun i (n, extra, sd) ->
        ( Printf.sprintf "g%d(n=%d,m=%d)" (i + 1) n (n - 1 + extra),
          sd,
          Generators.random_connected (Random.State.make [| sd |]) ~n ~m:(n - 1 + extra) ))
      [ (3, 1, 101); (5, 3, 202); (7, 2, 303); (8, 8, 404) ]
  in
  List.iter
    (fun (Builders.Builder e) -> List.iter (trajectories_of e) graphs)
    (Builders.all @ [ Builders.Builder tie ])

let () =
  graphs ();
  edge_lists ();
  trajectories ()
