open Repro_graph
open Repro_runtime
open Repro_core
open Repro_baselines
module Service = Repro_service.Service

module Bfs_tree = struct
  include Bfs_builder.Packed

  let parent_of (s : St_layer.t) = s.St_layer.parent
  let loop_free = false
end

module Spt_tree = struct
  include Spt_builder.Packed

  let parent_of (s : Spt_builder.state) = s.Spt_builder.parent
  let loop_free = false
end

module Adhoc_tree = struct
  include Adhoc_bfs.Packed

  let parent_of (s : Adhoc_bfs.state) = s.Adhoc_bfs.parent
  let loop_free = false
end

module Mst_tree = struct
  include Mst_builder.P

  let parent_of (s : Mst_builder.state) = s.Mst_builder.st.St_layer.parent
  let loop_free = true
end

module Mdst_tree = struct
  include Mdst_builder.P

  let parent_of (s : Mdst_builder.state) = s.Mdst_builder.st.St_layer.parent
  let loop_free = true
end

type 's entry = {
  name : string;
  protocol : (module Protocol.S with type state = 's);
  tree : (module Service.TREE_PROTOCOL with type state = 's) option;
  packed : (module Service.PACKED_TREE_PROTOCOL with type state = 's) option;
  cheap_phi : bool;
  note : adversarial:bool -> Graph.t -> 's array -> string;
}

type t = Builder : 's entry -> t

let no_note ~adversarial:_ _ _ = ""

let packed_tree (type s) name (module T : Service.PACKED_TREE_PROTOCOL with type state = s)
    ~cheap_phi ~note =
  Builder
    {
      name;
      protocol = (module T : Protocol.S with type state = s);
      tree = Some (module T : Service.TREE_PROTOCOL with type state = s);
      packed = Some (module T);
      cheap_phi;
      note;
    }

let boxed_tree (type s) name (module T : Service.TREE_PROTOCOL with type state = s) ~note =
  Builder
    {
      name;
      protocol = (module T : Protocol.S with type state = s);
      tree = Some (module T);
      packed = None;
      cheap_phi = false;
      note;
    }

let plain (type s) name (module P : Protocol.S with type state = s) ~note =
  Builder { name; protocol = (module P); tree = None; packed = None; cheap_phi = false; note }

let bfs =
  packed_tree "bfs" (module Bfs_tree) ~cheap_phi:true ~note:(fun ~adversarial:_ g sts ->
      Printf.sprintf "phi = %d" (Bfs_builder.potential g sts))

let mst =
  boxed_tree "mst" (module Mst_tree) ~note:(fun ~adversarial:_ g sts ->
      match Mst_builder.tree_of g sts with
      | Some t ->
          Printf.sprintf "tree weight %d (MST weight %d)" (Tree.weight t g) (Mst.mst_weight g)
      | None -> "no tree")

let mdst =
  boxed_tree "mdst" (module Mdst_tree) ~note:(fun ~adversarial:_ g sts ->
      match Mdst_builder.tree_of g sts with
      | Some t ->
          let fr, _, _ = Min_degree.furer_raghavachari g ~root:0 in
          Printf.sprintf "tree degree %d (sequential FR: %d)" (Tree.max_degree t)
            (Tree.max_degree fr)
      | None -> "no tree")

let spt =
  packed_tree "spt" (module Spt_tree) ~cheap_phi:true ~note:(fun ~adversarial:_ g sts ->
      Printf.sprintf "potential = %d" (Spt_builder.potential g sts))

let adhoc_bfs = packed_tree "adhoc-bfs" (module Adhoc_tree) ~cheap_phi:false ~note:no_note

let compact_mst =
  plain "compact-mst" (module Compact_mst.P) ~note:(fun ~adversarial _ _ ->
      if adversarial then "uncertified: may be silent yet wrong from garbage" else "")

let fullinfo_mst = plain "fullinfo-mst" (module Fullinfo.Mst_instance.P) ~note:no_note
let fullinfo_mdst = plain "fullinfo-mdst" (module Fullinfo.Mdst_instance.P) ~note:no_note

let all =
  [ bfs; mst; mdst; spt; adhoc_bfs; compact_mst; fullinfo_mst; fullinfo_mdst ]

let flagship = [ bfs; mst; spt ]
let name (Builder e) = e.name
let find s = List.find_opt (fun b -> name b = s) all
let serves (Builder e) = e.tree <> None
let packed (Builder e) = e.packed <> None
let cheap_phi (Builder e) = e.cheap_phi

let describe b =
  let caps = (if serves b then [ "serve" ] else []) @ if packed b then [ "packed" ] else [] in
  if caps = [] then name b else Printf.sprintf "%s (%s)" (name b) (String.concat ", " caps)

type outcome = {
  algo : string;
  silent : bool;
  legal : bool;
  rounds : int;
  steps : int;
  max_bits : int;
  note : string;
  verdict : string option;
  injected : bool;
}

(* Packed iff the entry has a codec: both engines run the same loop
   with the same hooks, so the choice changes wall time only. *)
let engine (type s) (e : s entry) : (module Engine.S with type state = s) =
  match e.packed with
  | Some (module K) -> (module Engine_packed.Make (K))
  | None ->
      let module P = (val e.protocol) in
      (module Engine.Make (P))

let run_entry (type s) (e : s entry) ?events ~faults ~adversarial ~max_rounds g sched rng =
  let module E = (val engine e) in
  (* Each run gets a fresh watchdog, so after fault injection the
     verdict is the recovery run's — the one under study. The watchdog
     only observes: it classifies a non-silent exit (livelock vs bare
     exhaustion) instead of just reporting the hit limit. *)
  let observed ~init =
    let wd = Watchdog.create ~observe_only:true () in
    let r = E.run ~max_rounds ~watchdog:wd ?events g sched rng ~init in
    (r, wd)
  in
  let init = if adversarial then E.adversarial rng g else E.initial g in
  let ((first, _) as run1) = observed ~init in
  let (r, wd), injected =
    if faults > 0 && first.E.silent then begin
      (* Pick first, corrupt second (same RNG stream as
         Fault.corrupt) so the fault events name the nodes actually
         hit and the recovery run's initially-enabled nodes can be
         attributed. *)
      let module P = (val e.protocol) in
      let picked = Fault.pick_nodes rng ~n:(Graph.n g) ~k:faults in
      let corrupted =
        Fault.corrupt_nodes rng ~random_state:P.random_state g first.E.states picked
      in
      Events.emit_sources events picked ~emit:(fun sink v ->
          Events.emit_fault sink ~node:v);
      (observed ~init:corrupted, true)
    end
    else (run1, false)
  in
  let silent = r.E.silent in
  {
    algo = e.name;
    silent;
    legal = r.E.legal;
    rounds = r.E.rounds;
    steps = r.E.steps;
    max_bits = r.E.max_bits;
    note = e.note ~adversarial g r.E.states;
    verdict =
      (if silent then None
       else Some (Format.asprintf "%a" Watchdog.pp_verdict (Watchdog.verdict wd ~silent)));
    injected;
  }

let run ?events ?(faults = 0) ~adversarial ~max_rounds (Builder e) g sched rng =
  run_entry e ?events ~faults ~adversarial ~max_rounds g sched rng

(* The same rule for service episodes: the packed service engine iff
   the entry has a codec. *)
let serve_entry (type s) (e : s entry) ?max_rounds ?events g ~sched ~fallback rng trace =
  let watch_phi = e.cheap_phi in
  match (e.packed, e.tree) with
  | Some (module K), _ ->
      let module S = Service.Make_packed (K) in
      S.run ?max_rounds ~watch_phi ?events g ~sched ~fallback rng trace
  | None, Some (module T) ->
      let module S = Service.Make (T) in
      S.run ?max_rounds ~watch_phi ?events g ~sched ~fallback rng trace
  | None, None -> invalid_arg (e.name ^ ": not a tree builder")

let serve ?max_rounds ?events (Builder e) = serve_entry e ?max_rounds ?events
