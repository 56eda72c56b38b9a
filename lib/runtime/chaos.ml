module Graph = Repro_graph.Graph
module Traversal = Repro_graph.Traversal

type injection = {
  round : int;
  nodes : int list;
  gap : int option;
  radius : int option;
  touched : int;
}

(* The episode budgets: a step cap per engine run, a round cap per
   phase and an injection cap for mid-run timings. *)
let max_steps = 2_000_000
let max_rounds = 20_000
let max_injections = 3

module Make (P : Protocol.S) (E : Engine.S with type state = P.state) = struct

  type episode = {
    plan : Fault.Plan.t;
    base_rounds : int;
    rounds : int;
    steps : int;
    silent : bool;
    legal : bool;
    recovered : bool;
    verdict : Watchdog.verdict;
    injections : injection list;
    max_bits : int;
  }

  let run_episode ?(watch_phi = false) ?events g sched rng (plan : Fault.Plan.t) =
    let wd = Watchdog.create ~watch_phi () in
    (* Config history for stale-replay payloads: most recent boundary
       first, trimmed to the depth the plan can ask for. *)
    let history_depth =
      match plan.Fault.Plan.payload with Fault.Plan.Stale d -> max 1 d | _ -> 0
    in
    let history = ref [] in
    let push_history states =
      let rec take k = function
        | x :: tl when k > 0 -> x :: take (k - 1) tl
        | _ -> []
      in
      history := take history_depth (Array.copy states :: !history)
    in
    let stale d = List.nth_opt !history (max 0 (d - 1)) in
    (* Fault-phase bookkeeping. Rounds are cumulative over the whole
       fault phase even though it may span several engine runs (a run
       terminates whenever the configuration goes silent between
       scheduled injections). *)
    let injections = ref [] in
    let inj_count = ref 0 in
    let seg_writers = Hashtbl.create 64 in
    let current = ref None in
    let close_segment ~at_round ~recovered =
      match !current with
      | None -> ()
      | Some (inj_round, nodes) ->
          let dist = Traversal.hop_distances g nodes in
          let radius =
            Hashtbl.fold
              (fun v () acc ->
                let d = dist.(v) in
                match acc with
                | None -> Some d
                | Some r -> Some (max r d))
              seg_writers None
          in
          let record =
            {
              round = inj_round;
              nodes;
              gap = (if recovered then Some (at_round - inj_round) else None);
              radius;
              touched = Hashtbl.length seg_writers;
            }
          in
          injections := record :: !injections;
          Hashtbl.reset seg_writers;
          current := None
    in
    let inject ~at_round states =
      let nodes, corrupted =
        Fault.apply_plan rng ~random_state:P.random_state ~stale g states plan
      in
      incr inj_count;
      current := Some (at_round, nodes);
      Watchdog.reset wd;
      (nodes, corrupted)
    in
    let cap =
      match plan.Fault.Plan.timing with
      | Fault.Plan.At_silence -> 1
      | Fault.Plan.Periodic _ | Fault.Plan.Poisson _ -> max_injections
    in
    (* The engine observes the watchdog; a per-round hook (which makes
       a packed run re-box) is attached only for stale-replay plans. *)
    let on_round =
      if history_depth > 0 then Some (fun _ states -> push_history states) else None
    in
    (* Phase 1: stabilize from an adversarial configuration. *)
    let base =
      E.run ~max_steps ~max_rounds ?on_round ~watchdog:wd ?events g sched rng
        ~init:(E.adversarial rng g)
    in
    if not (base.E.silent && base.E.legal) then
      {
        plan;
        base_rounds = base.E.rounds;
        rounds = 0;
        steps = base.E.steps;
        silent = base.E.silent;
        legal = base.E.legal;
        recovered = false;
        verdict = Watchdog.verdict wd ~silent:base.E.silent;
        injections = [];
        max_bits = base.E.max_bits;
      }
    else begin
      (* Phase 2: the fault campaign. Each iteration corrupts the current
         silent configuration and runs to recovery; Periodic/Poisson plans
         additionally re-inject mid-run through the engine's [?adversary]
         round-boundary hook. *)
      let states = ref base.E.states in
      let rounds_off = ref 0 in
      let steps_total = ref 0 in
      let max_bits = ref base.E.max_bits in
      let last = ref base in
      while !inj_count < cap && !last.E.silent && !last.E.legal && !rounds_off < max_rounds
      do
        let run_base = !rounds_off in
        let nodes, corrupted = inject ~at_round:run_base !states in
        (* This corruption happens outside the engine (the recovery run
           starts from the corrupted configuration), so emit its fault
           events here for the recovery run to take as the causes of
           the nodes it starts enabled: the pre-fault configuration was
           silent. Mid-run re-injections below go through the
           [?adversary] hook and get their fault events from the engine.
           The sink and the watchdog keep the timeline, so the fault
           phase's rounds and steps follow the base run's. (The
           injection records keep fault-phase-relative rounds.) *)
        Events.emit_sources events nodes ~emit:(fun sink v ->
            Events.emit_fault sink ~node:v);
        let fires abs =
          abs > run_base
          &&
          match plan.Fault.Plan.timing with
          | Fault.Plan.At_silence -> false
          | Fault.Plan.Periodic r -> abs mod max 1 r = 0
          | Fault.Plan.Poisson rate -> Random.State.float rng 1.0 < rate
        in
        let adversary ~round sts =
          let abs = run_base + round in
          if !inj_count < cap && fires abs then begin
            close_segment ~at_round:abs ~recovered:(E.silent g sts && P.is_legal g sts);
            let nodes, corrupted = inject ~at_round:abs sts in
            List.map (fun v -> (v, corrupted.(v))) nodes
          end
          else []
        in
        let on_step v _ = Hashtbl.replace seg_writers v () in
        let r =
          E.run ~max_steps ~max_rounds:(max_rounds - run_base) ?on_round ~on_step
            ~adversary ~watchdog:wd ?events g sched rng ~init:corrupted
        in
        states := r.E.states;
        rounds_off := run_base + r.E.rounds;
        steps_total := !steps_total + r.E.steps;
        max_bits := max !max_bits r.E.max_bits;
        close_segment ~at_round:!rounds_off ~recovered:(r.E.silent && r.E.legal);
        last := r
      done;
      let final = !last in
      let recovered = final.E.silent && final.E.legal in
      {
        plan;
        base_rounds = base.E.rounds;
        rounds = !rounds_off;
        steps = !steps_total;
        silent = final.E.silent;
        legal = final.E.legal;
        recovered;
        verdict = Watchdog.verdict wd ~silent:final.E.silent;
        injections = List.rev !injections;
        max_bits = !max_bits;
      }
    end
end
