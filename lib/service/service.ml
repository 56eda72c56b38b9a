module Graph = Repro_graph.Graph
open Repro_runtime

module type TREE_PROTOCOL = sig
  include Protocol.S

  val parent_of : state -> int
  val loop_free : bool
end

module type PACKED_TREE_PROTOCOL = sig
  include Protocol.PACKED

  val parent_of : state -> int
  val loop_free : bool
  val parent_lane : int
end

type event_outcome = {
  op : string;
  apply_round : int;
  gap : int option;
  steps : int;
  queries : int;
  stale : int;
  violations : int;
  retries : int;
  escalations : int;
  restarts : int;
  crashes : int;
  recovered : bool;
}

type report = {
  trace : Churn.t;
  base_rounds : int;
  base_steps : int;
  rounds : int;
  steps : int;
  events : event_outcome list;
  recovered : bool;
  verdict : Watchdog.verdict;
  n_final : int;
  m_final : int;
  max_bits : int;
}

(* The degradation ladder's policy: the round budget of every rung past
   the first attempt, the same-daemon retries before escalating, and the
   pair reads served per round boundary of a recovery. *)
let retry_budget = 2_000
let max_retries = 2
let queries_per_round = 2

(* The episode's budgets: its round cap and its step cap. *)
let max_rounds = 20_000
let max_steps = 2_000_000

(* ------------------------------------------------------------------ *)
(* The episode driver, shared between the boxed and packed engines.
   Everything engine-specific — how registers are stored, booted,
   migrated across churn, projected to parents, warm-started, and run
   for one watchdog-guarded segment — is behind [BACKEND]; the ladder,
   the watchdog, the committed-snapshot read serving and the staleness
   closure are written once. A segment's result is its counts
   ([Engine.stats]); the configuration stays backend-private. *)

module type BACKEND = sig
  module P : TREE_PROTOCOL

  type regs

  (** Adversarial boot: one [P.random_state] draw per node, in node
      order (the restart rung and the episode's base phase). *)
  val boot : Random.State.t -> Graph.t -> regs

  (** Carry the registers across a churn migration against the
      {e edited} graph; the joiner draws one [P.random_state]. *)
  val migrate : regs -> Graph.t -> Topology.migration -> Random.State.t -> regs

  (** The parent projection the commits are built from. *)
  val parents : regs -> int array

  (** [seeds regs g' ~old_n affected] — after an edit of a silent legal
      configuration into [regs] on [g'] (with [old_n] nodes before the
      edit; [affected] from {!Topology.affected}), the nodes a warm
      start must probe, or [None] to scan all of them. *)
  val seeds : regs -> Graph.t -> old_n:int -> int list -> int array option

  (** One engine segment under [watchdog]. A raising run must leave
      [regs] equal to the pre-segment registers (crash containment
      retries from them). *)
  val run :
    max_steps:int ->
    max_rounds:int ->
    watchdog:Watchdog.t ->
    warm:int array option ->
    on_step:(int -> P.state array -> unit) option ->
    events:Events.t option ->
    Graph.t ->
    Scheduler.t ->
    Random.State.t ->
    regs ->
    regs * Engine.stats
end

module Driver (B : BACKEND) = struct
  module P = B.P

  let run ?(watch_phi = false) ?events g0 ~sched ~fallback rng (trace : Churn.t) =
    (* Canned generators expand against the starting topology, before
       any engine run, so the op list is pinned by the seed alone. *)
    let ops = Churn.expand rng g0 trace.Churn.spec in
    (* The watchdog keeps the episode's round clock: every segment,
       crashed or not, numbers its rounds from the boundary the last
       one reached. *)
    let wd = Watchdog.create ~watch_phi () in
    let clock () = Watchdog.last_round wd in
    let g = ref g0 in
    let regs = ref (B.boot rng g0) in
    let steps_total = ref 0 in
    let max_bits = ref 0 in
    let last_silent = ref false in
    let last_ok = ref false in
    (* Committed labels: the double-buffered snapshot reads are served
       from. Until the first commit no reads are served ([ready]). *)
    let snap = Snapshot.create () in
    let served = ref [] in
    let serving = ref false in
    let seg_crashes = ref 0 in
    let seg_violations = ref 0 in
    let monitor_armed = ref false in
    (* The reads of the round boundaries [from, from + count): the pairs
       depend on the round number alone, and the front snapshot cannot
       change during a recovery (commits happen between events), so a
       segment's reads are served after it from its round numbers — no
       per-round hook, so the packed engine never re-boxes for them. *)
    let serve_reads ~from ~count =
      if !serving && Snapshot.ready snap then begin
        let n = Snapshot.n snap in
        for r = from to from + count - 1 do
          for q = 0 to queries_per_round - 1 do
            let v = ((r * 7) + q) mod n in
            let u = ((r * 13) + (5 * q) + 1) mod n in
            served := (v, u, Snapshot.answer snap ~v ~u) :: !served
          done
        done
      end
    in
    (* Loop monitor: after node [v]'s write, chase its new parent chain;
       returning to [v] means the move closed a cycle. A chain that
       dangles or cycles elsewhere is someone else's (adversarial)
       register, not this move's violation. Attached only while armed:
       a per-write hook makes the packed engine re-box each write. *)
    let on_step v sts =
      let n = Array.length sts in
      let rec chase u fuel =
        if fuel = 0 then ()
        else
          let p = P.parent_of sts.(u) in
          if p < 0 || p >= n || p = u then ()
          else if p = v then incr seg_violations
          else chase p (fuel - 1)
      in
      chase v n
    in
    (* One watchdog-guarded engine run under [daemon], clamped to the
       episode's global budgets. Raising runs are contained and counted
       as crashes (the machine-level failure mode the ladder exists
       for); only genuinely fatal conditions propagate. *)
    let attempt ~daemon ~budget ?warm () =
      let budget = min budget (max_rounds - clock ()) in
      let steps_left = max_steps - !steps_total in
      if budget <= 0 || steps_left <= 0 then begin
        last_silent := false;
        last_ok := false;
        None
      end
      else begin
        let run_base = clock () in
        Watchdog.reset wd;
        let outcome =
          match
            B.run ~max_steps:steps_left ~max_rounds:budget ~watchdog:wd ~warm
              ~on_step:(if !monitor_armed then Some on_step else None)
              ~events !g daemon rng !regs
          with
          | r -> Ok r
          | exception ((Out_of_memory | Stack_overflow) as e) -> raise e
          | exception _ -> Error ()
        in
        (* The engine observed the watchdog at every round boundary the
           segment reached, crashed or not. *)
        serve_reads ~from:run_base ~count:(Watchdog.observed wd);
        match outcome with
        | Ok (regs', (s : Engine.stats)) ->
            regs := regs';
            steps_total := !steps_total + s.steps;
            max_bits := max !max_bits s.max_bits;
            last_silent := s.silent;
            last_ok := s.silent && s.legal;
            Some s
        | Error () ->
            (* The crashed segment's rounds elapsed (its reads were
               served above and the clock passed them); its writes are
               rolled back and spend no steps. *)
            incr seg_crashes;
            last_silent := false;
            last_ok := false;
            None
      end
    in
    let ok = function Some (s : Engine.stats) -> s.silent && s.legal | None -> false in
    (* Phase 1: stabilize from adversarial, full budget, no ladder —
       the same contract as a chaos episode's base phase. *)
    let base = attempt ~daemon:sched ~budget:max_rounds () in
    let base_rounds = clock () and base_steps = !steps_total in
    let finish events_acc =
      {
        trace;
        base_rounds;
        base_steps;
        rounds = clock ();
        steps = !steps_total;
        events = List.rev events_acc;
        recovered = !last_ok;
        verdict = Watchdog.verdict wd ~silent:!last_silent;
        n_final = Graph.n !g;
        m_final = Graph.m !g;
        max_bits = !max_bits;
      }
    in
    if not (ok base) then finish []
    else begin
      Snapshot.commit snap (B.parents !regs);
      let first_budget =
        match trace.Churn.timing with
        | Churn.At_silence -> retry_budget
        | Churn.Every r -> r
      in
      let outcomes =
        List.fold_left
          (fun acc op ->
            let apply_round = clock () in
            let steps_before = !steps_total in
            let retries = ref 0
            and escalations = ref 0
            and restarts = ref 0 in
            seg_crashes := 0;
            seg_violations := 0;
            served := [];
            let old_n = Graph.n !g and was_ok = !last_ok in
            let g', mig = Topology.apply !g op in
            let affected = Topology.affected !g op mig in
            g := g';
            regs := B.migrate !regs g' mig rng;
            (* The edit landed on a silent legal configuration: only the
               guards it can have flipped need a probe. *)
            let warm = if was_ok then B.seeds !regs g' ~old_n affected else None in
            (* The edit happens outside the engine, so emit its churn
               events here for the recovery run to take as the causes of
               the nodes it starts enabled: every node a changed view
               enables was woken by the edit. *)
            Events.emit_sources events affected ~emit:(fun sink v ->
                Events.emit_churn sink ~node:v ~op:(Churn.op_name op));
            monitor_armed := P.loop_free;
            serving := true;
            let recovered =
              if ok (attempt ~daemon:sched ~budget:first_budget ?warm ()) then
                true
              else begin
                let rec retry k =
                  if k >= max_retries then false
                  else begin
                    incr retries;
                    if ok (attempt ~daemon:sched ~budget:retry_budget ()) then true
                    else retry (k + 1)
                  end
                in
                if retry 0 then true
                else begin
                  incr escalations;
                  if ok (attempt ~daemon:fallback ~budget:retry_budget ()) then true
                  else begin
                    incr restarts;
                    regs := B.boot rng !g;
                    ok (attempt ~daemon:sched ~budget:retry_budget ())
                  end
                end
              end
            in
            monitor_armed := false;
            serving := false;
            (* Close the staleness window: commit the configuration the
               event settled on (legal when recovered, the degraded
               truth otherwise), then re-evaluate every served answer
               against it. Answers that differ, or that name a node
               that left, count as stale. *)
            let truth = B.parents !regs in
            Snapshot.commit snap truth;
            let n' = Array.length truth in
            let stale =
              List.fold_left
                (fun acc (v, u, ans) ->
                  if v >= n' || u >= n' || Snapshot.answer snap ~v ~u <> ans then
                    acc + 1
                  else acc)
                0 !served
            in
            {
              op = Churn.op_name op;
              apply_round;
              gap = (if recovered then Some (clock () - apply_round) else None);
              steps = !steps_total - steps_before;
              queries = List.length !served;
              stale;
              violations = !seg_violations;
              retries = !retries;
              escalations = !escalations;
              restarts = !restarts;
              crashes = !seg_crashes;
              recovered;
            }
            :: acc)
          [] ops
      in
      finish outcomes
    end
end

(* ------------------------------------------------------------------ *)
(* Boxed backend: registers are a [P.state array] between segments. *)

module Make (P : TREE_PROTOCOL) = struct
  module E = Engine.Make (P)

  module D = Driver (struct
    module P = P

    type regs = P.state array

    let boot rng g = E.adversarial rng g

    let migrate regs g' mig rng =
      Topology.migrate regs mig ~fresh:(fun id -> P.random_state rng g' id)

    let parents regs = Array.map P.parent_of regs

    (* No declaration of the guards' global inputs: always a full scan. *)
    let seeds _ _ ~old_n:_ _ = None

    let run ~max_steps ~max_rounds ~watchdog ~warm:_ ~on_step ~events g sched rng regs =
      let r =
        E.run ~max_steps ~max_rounds ~watchdog ?on_step ?events g sched rng ~init:regs
      in
      ( r.E.states,
        {
          Engine.steps = r.E.steps;
          rounds = r.E.rounds;
          silent = r.E.silent;
          legal = r.E.legal;
          max_bits = r.E.max_bits;
        } )
  end)

  let run = D.run
end

(* ------------------------------------------------------------------ *)
(* Packed backend: registers live in the struct-of-arrays bank for the
   whole episode — engine segments mutate it in place, churn migration
   copies surviving lanes verbatim ([Topology.migrate_bank]), a
   recovery after a clean event is warm-started from the edit's seeds,
   and only the hooks that read states (the loop monitor, events, a
   Φ-watching watchdog) observe re-boxed configurations, so an episode
   is draw-for-draw and observation-for-observation identical to the
   boxed [Make] (pinned by test_serve's equivalence suite). *)

module Make_packed (P : PACKED_TREE_PROTOCOL) = struct
  module E = Engine_packed.Make (P)

  module D = Driver (struct
    module P = P

    type regs = int array array

    let boot rng g = E.pack_bank ~n:(Graph.n g) (E.adversarial rng g)

    let migrate bank g' mig rng =
      Topology.migrate_bank bank mig
        ~fresh:(fun id -> P.pack ~n:(Graph.n g') (P.random_state rng g' id))

    let parents bank = Array.copy bank.(P.parent_lane)

    let seeds bank g' ~old_n affected = Some (E.seeds bank g' ~old_n affected)

    (* Crash-containment parity with the boxed engine, which never
       mutates its [init]: [run_bank] journals its writes and leaves the
       bank as it found it when it raises. *)
    let run ~max_steps ~max_rounds ~watchdog ~warm ~on_step ~events g sched rng bank =
      ( bank,
        E.run_bank ~max_steps ~max_rounds ~watchdog ?warm ?on_step ?events g sched rng ~bank
      )
  end)

  let run = D.run
end
