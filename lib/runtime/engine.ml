module Graph = Repro_graph.Graph

type ('state, 'k) runner =
  ?max_steps:int ->
  ?max_rounds:int ->
  ?on_round:(int -> 'state array -> unit) ->
  ?on_step:(int -> 'state array -> unit) ->
  ?adversary:(round:int -> 'state array -> (int * 'state) list) ->
  ?stop_when:(unit -> bool) ->
  ?watchdog:Watchdog.t ->
  ?warm:int array ->
  ?events:Events.t ->
  ?profile:Profile.t ->
  Graph.t ->
  Scheduler.t ->
  Random.State.t ->
  'k

type stats = { steps : int; rounds : int; silent : bool; legal : bool; max_bits : int }

module type S = sig
  type state

  type result = {
    states : state array;
    steps : int;
    rounds : int;
    silent : bool;
    legal : bool;
    max_bits : int;
  }

  val initial : Graph.t -> state array
  val adversarial : Random.State.t -> Graph.t -> state array
  val silent : Graph.t -> state array -> bool
  val run : (state, init:state array -> result) runner
end

module type STORE = sig
  module P : Protocol.S

  type regs
  type t

  val create : ?profile:Profile.t -> watched:bool -> Graph.t -> regs -> t
  val probe_sweep : t -> Bitset.t -> enabled:Bitset.t -> (int -> bool -> bool -> unit) option -> unit
  val commit_sweep : t -> Bitset.t -> dirty:Bitset.t -> (int -> bool -> bool) option -> int
  val commit : t -> int -> dirty:Bitset.t -> bool
  val overwrite : t -> int -> P.state -> dirty:Bitset.t -> bool
  val register : t -> int -> P.state
  val previous : t -> int -> P.state
  val move : t -> int -> P.state
  val bits : t -> int -> int
  val bits_summary : t -> int * int
  val config : t -> P.state array
  val fingerprint : t -> int
  val serialize : t -> string
  val legal : t -> Graph.t -> Bitset.t option -> bool
  val rollback : t -> unit
end

(* ------------------------------------------------------------------ *)
(* The incremental executor. Trajectory-identical to [run_reference]
   (the equivalence suites pin this on both stores):

   - Move cache: a probe sweep memoizes the move [P.step] returned the
     last time [v]'s view changed, so a write applies the cached
     register instead of re-running the guard; membership in [enabled]
     says whether the cached move is live.
   - Enabled set: one bitset — O(1) insert/remove, O(Δ) guard probes
     per write, and a daemon pick scans n/32 words plus the enabled
     nodes (a de Bruijn multiply per member) instead of probing all n
     guards. Every pick enumerates it in increasing node order.
   - Round accounting: [pending] is a bitset; pruning it is a
     word-wise AND against the enabled set.
   - Per-run O(n) scratch: the enabled, dirty and pending bitsets
     (n/32 words each) and the store's own arrays; the distributed
     daemon's chosen set, the LIFO daemon's step clock and the tracing
     arrays exist only in the runs that read them.

   Guards are re-evaluated by the store's probe sweep over the dirty
   set. A synchronous round is two sweeps: the commit sweep writes the
   whole enabled set and marks the writers' closed neighbourhoods
   dirty, then one probe sweep re-evaluates each node of their union
   once per round rather than once per writing neighbour. The cache is
   only read at round boundaries there, so deferral is unobservable.
   The sequential daemons commit one node at a time and flush after
   every write, because the next guard read happens immediately.

   What a write or a probe owes the run beyond the registers and the
   sets — the step count, the pending set and every hook — is [moved]
   and [probed]. The sequential daemons call [moved] after every
   write; the sweeps call [moved] and [probed] per node only when a
   hook needs them. With no hook attached a synchronous round is the
   two sweeps plus O(n/32) set arithmetic, and on the packed store the
   steady-state loop allocates nothing (pinned by [Gc.minor_words]
   tests). *)

(* Precomputed per-node adjacency, shared by every view of a run. *)
type net = { g : Graph.t; ids : int array array; weights : int array array }

let net_of g =
  let n = Graph.n g in
  let ids = Array.init n (fun v -> Array.map fst (Graph.neighbors g v)) in
  let weights = Array.init n (fun v -> Array.map snd (Graph.neighbors g v)) in
  { g; ids; weights }

let view_net net states v =
  {
    View.id = v;
    n = Graph.n net.g;
    degree = Array.length net.ids.(v);
    nbr_ids = net.ids.(v);
    nbr_weights = net.weights.(v);
    self = states.(v);
    nbrs = Array.map (fun u -> states.(u)) net.ids.(v);
  }

module Loop (St : STORE) = struct
  module P = St.P

  type result = {
    states : P.state array;
    steps : int;
    rounds : int;
    silent : bool;
    legal : bool;
    max_bits : int;
  }

  let initial g = Array.init (Graph.n g) (fun v -> P.initial g v)
  let adversarial rng g = Array.init (Graph.n g) (fun v -> P.random_state rng g v)

  (* Short-circuits on the first enabled node instead of materializing
     the full list — [silent] is a pure predicate and gets probed a lot
     by tests and examples. *)
  let silent g states =
    let net = net_of g in
    let n = Graph.n net.g in
    let rec go v = v >= n || (P.step (view_net net states v) = None && go (v + 1)) in
    go 0

  let loop ~max_steps ~max_rounds ?on_round ?on_step ?adversary ?stop_when ?watchdog ?warm
      ?events ?profile g sched rng st =
    let n = Graph.n g in
    let row = Graph.csr_row g and col = Graph.csr_col g in
    let steps = ref 0 in
    let rounds = ref 0 in
    let max_bits = ref (fst (St.bits_summary st)) in
    let stop = ref false in
    let poll_stop () =
      (match stop_when with Some f -> if f () then stop := true | None -> ());
      match watchdog with Some wd -> if Watchdog.stops wd then stop := true | None -> ()
    in
    (* After a warm start, the nodes whose registers this run writes
       (moves and faults): with the seeds, they bound where legality
       can have changed. *)
    let written = Bitset.create (if warm = None then 0 else n) in
    let wrote v = if warm <> None then Bitset.add written v in
    (* Causal provenance (allocated only when an event sink is attached):
       [cause_buf.(v)] accumulates the ids of the events whose writes
       dirtied [v]'s view since [v]'s guard last consumed them;
       [enablers.(v)] freezes, at the moment [v]'s cached move (re-)
       appears, the ids that woke it — emitted as that move's [causes]. *)
    let tracing = events <> None in
    (* The sink owns the timeline: this run's rounds and steps continue
       from its clock, and the sources it recorded since the last run
       are taken now, before a guard can raise. *)
    let round_base, step_base, source_causes =
      match events with
      | Some sink ->
          (Events.last_round sink, Events.writes_total sink, Events.take_sources sink g)
      | None -> (0, 0, None)
    in
    (* An observed watchdog keeps its own round clock the same way. *)
    let wd_base = match watchdog with Some wd -> Watchdog.last_round wd | None -> 0 in
    let cause_buf = if tracing then Array.make n [] else [||] in
    let enablers = if tracing then Array.make n [] else [||] in
    let just_moved = if tracing then Array.make n false else [||] in
    (* Rule tags re-box the old register and the move; only a sink or a
       profile reads them. *)
    let classify = if tracing || profile <> None then P.classify else None in
    let enabled = Bitset.create n in
    let dirty = Bitset.create n in
    (* What re-evaluating [v]'s guard owes the hooks; [was]/[now]: its
       membership in [enabled] before and after. *)
    let probed v was now =
      (match profile with
      | Some p ->
          Profile.on_guard p;
          if was <> now then Profile.on_churn p
      | None -> ());
      if tracing then begin
        if now && ((not was) || just_moved.(v)) then enablers.(v) <- List.rev cause_buf.(v)
        else if not now then enablers.(v) <- [];
        just_moved.(v) <- false;
        cause_buf.(v) <- []
      end
    in
    let on_probe = if tracing || profile <> None then Some probed else None in
    (* A warm start probes only the seeds: the caller vouches that
       every other node is disabled (see [?warm] in engine.mli). *)
    (match warm with
    | None ->
        for v = 0 to n - 1 do
          Bitset.add dirty v
        done
    | Some seeds -> Array.iter (Bitset.add dirty) seeds);
    St.probe_sweep st dirty ~enabled on_probe;
    (* Seed provenance for nodes the *initial configuration* enables:
       the caller perturbed a silent configuration outside the engine
       and emitted the source events itself ([Events.emit_sources]).
       Nodes with no source in their closed neighbourhood stay
       root-spontaneous. *)
    Option.iter
      (fun causes -> Bitset.iter (fun v -> enablers.(v) <- causes v) enabled)
      source_causes;
    let flush () =
      if not (Bitset.is_empty dirty) then begin
        (match profile with Some p -> Profile.on_flush p | None -> ());
        St.probe_sweep st dirty ~enabled on_probe
      end
    in
    (* A write changed [v]'s register and the store marked its closed
       neighbourhood dirty: the profile counts the wakeup, and the
       write's event [eid] becomes a pending cause of every guard there. *)
    let touched v eid =
      (match profile with Some p -> Profile.on_touch p | None -> ());
      if tracing then begin
        cause_buf.(v) <- eid :: cause_buf.(v);
        for i = row.(v) to row.(v + 1) - 1 do
          let u = col.(i) in
          cause_buf.(u) <- eid :: cause_buf.(u)
        done
      end
    in
    (* Transient faults (see [run_reference]): adversary writes are not
       steps, but they dirty the closed neighborhoods and the caches are
       rebuilt from the corrupted registers before the next pick. *)
    let inject () =
      match adversary with
      | None -> ()
      | Some f ->
          List.iter
            (fun (v, s) ->
              if St.overwrite st v s ~dirty then begin
                wrote v;
                max_bits := max !max_bits (St.bits st v);
                (* A mid-run corruption is a DAG source: the fault event
                   becomes the cause of every move it wakes up. *)
                touched v
                  (match events with Some sink -> Events.emit_fault sink ~node:v | None -> -1)
              end)
            (f ~round:!rounds (St.config st));
          flush ()
    in
    (* Adversary bookkeeping: the LIFO daemon's step clock. *)
    let last_step_time =
      match sched with
      | Scheduler.Central Scheduler.Lifo_adversary -> Array.make n (-1)
      | _ -> [||]
    in
    let lifo = Array.length last_step_time > 0 in
    let rr_cursor = ref 0 in
    let pending = Bitset.create n in
    (* What the write of [v]'s move owes the run, after the store made
       it; [changed]: the register physically changed (the store then
       marked its closed neighbourhood dirty). [false] once the run
       must stop. *)
    let moved v changed =
      wrote v;
      incr steps;
      if lifo then last_step_time.(v) <- !steps;
      let bits = St.bits st v in
      if bits > !max_bits then max_bits := bits;
      let rule =
        match classify with
        | Some f -> Some (f (St.previous st v) (St.register st v))
        | None -> None
      in
      (match profile with Some p -> Profile.on_move ?rule p | None -> ());
      let eid =
        match events with
        | Some sink ->
            let eid =
              Events.emit_move sink ~node:v ~step:(step_base + !steps)
                ~round:(round_base + !rounds) ?rule
                ~bits_before:(P.size_bits n (St.previous st v))
                ~bits_after:bits ~causes:enablers.(v) ()
            in
            enablers.(v) <- [];
            just_moved.(v) <- true;
            eid
        | None -> -1
      in
      (* A physically unchanged register leaves every view — including
         the writer's own — bit-identical, so the caches stay valid. *)
      if changed then touched v eid;
      Bitset.remove pending v;
      (match on_step with Some f -> f v (St.config st) | None -> ());
      poll_stop ();
      not !stop
    in
    (* A synchronous round hands [moved] to the commit sweep only when a
       per-write hook reads it. Without one nothing can stop the run
       mid-round: a watchdog changes its mind only at round boundaries. *)
    let on_write =
      if tracing || profile <> None || on_step <> None || stop_when <> None || warm <> None
      then Some moved
      else None
    in
    let apply v =
      ignore (moved v (St.commit st v ~dirty));
      flush ()
    in
    let round_boundary () =
      (match events with
      | Some sink ->
          let phi =
            if Events.wants_phi sink then P.potential g (St.config st) else None
          in
          Events.emit_round sink
            ~round:(round_base + !rounds)
            ~enabled:(Bitset.cardinal enabled)
            ~bits:(St.bits_summary st) ~phi
      | None -> ());
      (match watchdog with
      | Some wd ->
          Watchdog.observe_round wd
            ~round:(wd_base + !rounds)
            ~hash:(St.fingerprint st)
            ~snap:(fun () -> St.serialize st)
            ~phi:(if Watchdog.watches_phi wd then P.potential g (St.config st) else None)
      | None -> ());
      (match on_round with Some f -> f !rounds (St.config st) | None -> ());
      poll_stop ();
      if not !stop then inject ()
    in
    round_boundary ();
    (* Daemon picks. The published semantics enumerate candidates in
       increasing node order ([run_reference] builds its list that way);
       the bitset enumerates in that order, so random's index draw, the
       distributed coin flips and the synchronous batch read it
       directly, and the extremal picks, whose result is
       order-independent, scan it with hoisted closures. *)
    let scan_best = ref (-1) in
    let max_scan v = if v > !scan_best then scan_best := v in
    let min_scan v = if !scan_best < 0 || v < !scan_best then scan_best := v in
    let rr_ge = ref max_int in
    let rr_scan v =
      if !scan_best < 0 || v < !scan_best then scan_best := v;
      if v >= !rr_cursor && v < !rr_ge then rr_ge := v
    in
    let lifo_scan v =
      let best = !scan_best in
      if
        best < 0
        || last_step_time.(v) > last_step_time.(best)
        || (last_step_time.(v) = last_step_time.(best) && v > best)
      then scan_best := v
    in
    let scan f =
      scan_best := -1;
      Bitset.iter f enabled;
      !scan_best
    in
    let pick_central strategy =
      match strategy with
      | Scheduler.Random_daemon ->
          Bitset.nth enabled (Random.State.int rng (Bitset.cardinal enabled))
      | Scheduler.Max_id -> scan max_scan
      | Scheduler.Min_id -> scan min_scan
      | Scheduler.Round_robin ->
          rr_ge := max_int;
          let least = scan rr_scan in
          let v = if !rr_ge < max_int then !rr_ge else least in
          rr_cursor := v + 1;
          v
      | Scheduler.Lifo_adversary -> scan lifo_scan
      | Scheduler.Greedy_max_phi | Scheduler.Greedy_min_phi ->
          (* Trial-evaluate Φ after each candidate's move (set, measure,
             restore — P.potential reads the configuration directly, so
             the probe is invisible elsewhere). The base configuration's
             Φ is computed at most once per pick: a candidate whose
             cached move equals its current register leaves the
             configuration identical, so its score IS the base score —
             no O(n) potential walk. (Enabled-but-unchanged registers are
             common during recovery, which is what made the chaos drag
             table quadratic in enabled-set size.) Undefined Φ scores
             +∞; strict improvement over the sorted enumeration = ties
             to the smallest id. *)
          let maximize = strategy = Scheduler.Greedy_max_phi in
          let states = St.config st in
          let base_phi =
            lazy (match P.potential g states with Some p -> p | None -> max_int)
          in
          let best =
            List.fold_left
              (fun best v ->
                let s = St.move st v in
                let old = states.(v) in
                let sc =
                  if s == old || P.equal_state s old then Lazy.force base_phi
                  else begin
                    states.(v) <- s;
                    let phi = P.potential g states in
                    states.(v) <- old;
                    match phi with Some p -> p | None -> max_int
                  end
                in
                match best with
                | None -> Some (v, sc)
                | Some (_, bs) ->
                    if (if maximize then sc > bs else sc < bs) then Some (v, sc) else best)
              None (Bitset.to_list enabled)
          in
          fst (Option.get best)
    in
    let reset_pending () = Bitset.copy_from ~src:enabled ~dst:pending in
    reset_pending ();
    let prune_pending () =
      (* Drop every pending node no longer activatable; nodes that
         stepped were removed by [moved]. *)
      Bitset.inter_inplace pending enabled;
      if Bitset.is_empty pending then begin
        incr rounds;
        round_boundary ();
        if not (Bitset.is_empty enabled) then reset_pending ()
      end
    in
    (* A write earlier in the same distributed batch may have disabled
       this candidate: its cached move is no longer live. *)
    let apply_live v = if (not !stop) && Bitset.mem enabled v then apply v in
    (* Distributed daemon: one coin flip per candidate in increasing node
       order, then a fallback index draw if none was chosen; the chosen
       nodes then act one after another on the live configuration (the
       state model is read/write atomic per node). *)
    let dist_p, chosen =
      match sched with
      | Scheduler.Distributed p -> (p, Bitset.create n)
      | _ -> (0.0, Bitset.create 0)
    in
    let flip v = if Random.State.float rng 1.0 < dist_p then Bitset.add chosen v in
    while
      (not !stop)
      && (not (Bitset.is_empty enabled))
      && !steps < max_steps && !rounds < max_rounds
    do
      (match sched with
      | Scheduler.Synchronous ->
          (* The caches were computed against the round-top
             configuration, which is exactly the snapshot the reference
             engine evaluates moves on: write every enabled node's
             cached move, then re-probe the dirtied closed
             neighbourhoods once. With no per-write hook the whole
             batch moves, and it is the whole pending set: the round is
             over. *)
          let bits = St.commit_sweep st enabled ~dirty on_write in
          if bits > !max_bits then max_bits := bits;
          if Option.is_none on_write then begin
            steps := !steps + Bitset.cardinal enabled;
            Bitset.clear pending
          end;
          flush ()
      | Scheduler.Central strategy -> apply (pick_central strategy)
      | Scheduler.Distributed _ ->
          Bitset.clear chosen;
          Bitset.iter flip enabled;
          if Bitset.is_empty chosen then
            Bitset.add chosen
              (Bitset.nth enabled (Random.State.int rng (Bitset.cardinal enabled)));
          Bitset.iter apply_live chosen);
      prune_pending ()
    done;
    let legal =
      match warm with
      | None -> St.legal st g None
      | Some seeds ->
          (* Only the closed neighbourhoods of the seeds and of the
             written nodes can have changed their legality conjuncts. *)
          let near = Bitset.create n in
          let close v =
            Bitset.add near v;
            for i = row.(v) to row.(v + 1) - 1 do
              Bitset.add near col.(i)
            done
          in
          Array.iter close seeds;
          Bitset.iter close written;
          St.legal st g (Some near)
    in
    ({
       steps = !steps;
       rounds = !rounds;
       silent = Bitset.is_empty enabled;
       legal;
       max_bits = !max_bits;
     }
      : stats)

  let exec ?(max_steps = 10_000_000) ?(max_rounds = 200_000) ?on_round ?on_step ?adversary
      ?stop_when ?watchdog ?warm ?events ?profile g sched rng ~init =
    let st = St.create ?profile ~watched:(watchdog <> None) g init in
    match
      loop ~max_steps ~max_rounds ?on_round ?on_step ?adversary ?stop_when ?watchdog ?warm
        ?events ?profile g sched rng st
    with
    | s -> (st, s)
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        St.rollback st;
        Printexc.raise_with_backtrace e bt

  let run ?max_steps ?max_rounds ?on_round ?on_step ?adversary ?stop_when ?watchdog ?warm
      ?events ?profile g sched rng ~init =
    let st, (s : stats) =
      exec ?max_steps ?max_rounds ?on_round ?on_step ?adversary ?stop_when ?watchdog ?warm
        ?events ?profile g sched rng ~init
    in
    {
      states = St.config st;
      steps = s.steps;
      rounds = s.rounds;
      silent = s.silent;
      legal = s.legal;
      max_bits = s.max_bits;
    }
end

(* ------------------------------------------------------------------ *)
(* The boxed store: a [P.state array], the move cache and one scratch
   [View.t] per node for the whole run. [moves.(v)] is [v]'s cached
   move while [v] is enabled (the loop's enabled set says when) and a
   stale register otherwise, like the packed store's move lanes;
   [prev.(v)] is the register [v] held before its last write. A guard
   probe re-points the view's [self] and [nbrs] slots in place only
   when a write has landed in the node's closed neighborhood since the
   last probe ([stale]), so guard probes stop allocating. Its sweeps
   are plain member loops over [probe] and [commit]: the boxed guards
   cost far more than a closure call. *)

module Make (P : Protocol.S) = struct
  type state = P.state

  let view g states v = view_net (net_of g) states v

  let enabled_net net states =
    let acc = ref [] in
    for v = Graph.n net.g - 1 downto 0 do
      if P.step (view_net net states v) <> None then acc := v :: !acc
    done;
    !acc

  let enabled g states = enabled_net (net_of g) states

  let max_bits_of states =
    Array.fold_left (fun acc s -> max acc (P.size_bits (Array.length states) s)) 0 states

  module Store = struct
    module P = P

    type regs = P.state array

    type t = {
      states : P.state array;
      moves : P.state array;
      prev : P.state array;
      scratch : P.state View.t array;
      ids : int array array;
      stale : bool array;
      profile : Profile.t option;
    }

    let create ?profile ~watched:_ g init =
      let net = net_of g in
      let states = Array.copy init in
      let n = Graph.n g in
      {
        states;
        moves = Array.copy states;
        prev = Array.copy states;
        scratch = Array.init n (fun v -> view_net net states v);
        ids = net.ids;
        stale = Array.make n false;
        profile;
      }

    let invalidate t v ~dirty =
      t.stale.(v) <- true;
      Bitset.add dirty v;
      let ids = t.ids.(v) in
      for i = 0 to Array.length ids - 1 do
        t.stale.(ids.(i)) <- true;
        Bitset.add dirty ids.(i)
      done

    let probe t v =
      if t.stale.(v) then begin
        (match t.profile with Some p -> Profile.on_refresh p | None -> ());
        let vw = t.scratch.(v) in
        vw.View.self <- t.states.(v);
        let ids = t.ids.(v) in
        for i = 0 to Array.length ids - 1 do
          vw.View.nbrs.(i) <- t.states.(ids.(i))
        done;
        t.stale.(v) <- false
      end;
      match P.step t.scratch.(v) with
      | Some s ->
          t.moves.(v) <- s;
          true
      | None -> false

    let probe_sweep t dirty ~enabled visit =
      Bitset.iter
        (fun v ->
          let was = Bitset.mem enabled v in
          let now = probe t v in
          if now then Bitset.add enabled v else Bitset.remove enabled v;
          match visit with Some f -> f v was now | None -> ())
        dirty;
      Bitset.clear dirty

    let move t v = t.moves.(v)
    let register t v = t.states.(v)
    let previous t v = t.prev.(v)

    let overwrite t v s ~dirty =
      t.prev.(v) <- t.states.(v);
      t.states.(v) != s
      && begin
           t.states.(v) <- s;
           invalidate t v ~dirty;
           true
         end

    let commit t v ~dirty = overwrite t v (move t v) ~dirty
    let bits t v = P.size_bits (Array.length t.states) t.states.(v)

    let commit_sweep t batch ~dirty visit =
      let top = ref 0 and go = ref true in
      Bitset.iter
        (fun v ->
          if !go then begin
            let changed = commit t v ~dirty in
            top := max !top (bits t v);
            match visit with Some f -> go := f v changed | None -> ()
          end)
        batch;
      !top

    let bits_summary t =
      let n = Array.length t.states in
      let mx = ref 0 and total = ref 0 in
      Array.iter
        (fun s ->
          let b = P.size_bits n s in
          if b > !mx then mx := b;
          total := !total + b)
        t.states;
      (!mx, !total)

    let config t = t.states
    let fingerprint t = Watchdog.config_hash t.states
    let serialize t = Marshal.to_string t.states []
    let legal t g _ = P.is_legal g t.states

    (* [create] copied the caller's registers: nothing to undo. *)
    let rollback _ = ()
  end

  include Loop (Store)

  (* ------------------------------------------------------------------ *)
  (* The naive executor: the semantics oracle. Every guard probe builds
     a fresh view, every write re-evaluates [P.step] once to recompute
     activation flags and once more to obtain the written register, and
     the per-round [pending] set is a Hashtbl. Kept verbatim so the
     incremental [run] ([Loop]) can be property-tested against it on
     both stores (test_engine_equiv, test_packed). *)

  let run_reference ?(max_steps = 10_000_000) ?(max_rounds = 200_000) ?on_round ?on_step
      ?adversary ?stop_when g sched rng ~init =
    let net = net_of g in
    let states = Array.copy init in
    let n = Graph.n g in
    let steps = ref 0 in
    let rounds = ref 0 in
    let max_bits = ref (max_bits_of states) in
    let stop = ref false in
    let poll_stop () =
      match stop_when with Some f -> if f () then stop := true | None -> ()
    in
    (* Incrementally maintained activatability: stepping node [v] can only
       change the enabled status of [v] and its neighbors. *)
    let is_enabled = Array.make n false in
    let enabled_count = ref 0 in
    let recompute v =
      let now = P.step (view_net net states v) <> None in
      if now <> is_enabled.(v) then begin
        is_enabled.(v) <- now;
        enabled_count := !enabled_count + if now then 1 else -1
      end
    in
    for v = 0 to n - 1 do
      recompute v
    done;
    let touch v =
      recompute v;
      Array.iter recompute net.ids.(v)
    in
    (* Transient faults: adversary writes at a round boundary are not
       protocol steps — no step count, no [on_step] — but the corrupted
       registers are observed for [max_bits] and invalidate the
       activation flags of their closed neighborhoods. *)
    let inject () =
      match adversary with
      | None -> ()
      | Some f ->
          List.iter
            (fun (v, s) ->
              if states.(v) != s then begin
                states.(v) <- s;
                max_bits := max !max_bits (P.size_bits n s);
                touch v
              end)
            (f ~round:!rounds states)
    in
    let enabled_list () =
      let acc = ref [] in
      for v = n - 1 downto 0 do
        if is_enabled.(v) then acc := v :: !acc
      done;
      !acc
    in
    (* Adversary bookkeeping. *)
    let last_step_time = Array.make n (-1) in
    let rr_cursor = ref 0 in
    let apply v s =
      states.(v) <- s;
      incr steps;
      last_step_time.(v) <- !steps;
      max_bits := max !max_bits (P.size_bits n s);
      touch v;
      (match on_step with Some f -> f v states | None -> ());
      poll_stop ()
    in
    let round_boundary () =
      (match on_round with Some f -> f !rounds states | None -> ());
      poll_stop ();
      if not !stop then inject ()
    in
    round_boundary ();
    let pick_central strategy candidates =
      match strategy with
      | Scheduler.Random_daemon ->
          List.nth candidates (Random.State.int rng (List.length candidates))
      | Scheduler.Max_id -> List.fold_left max (List.hd candidates) candidates
      | Scheduler.Min_id -> List.fold_left min (List.hd candidates) candidates
      | Scheduler.Round_robin ->
          let after = List.filter (fun v -> v >= !rr_cursor) candidates in
          let v = match after with v :: _ -> v | [] -> List.hd candidates in
          rr_cursor := v + 1;
          v
      | Scheduler.Lifo_adversary ->
          List.fold_left
            (fun best v ->
              if
                last_step_time.(v) > last_step_time.(best)
                || (last_step_time.(v) = last_step_time.(best) && v > best)
              then v
              else best)
            (List.hd candidates) candidates
      | Scheduler.Greedy_max_phi | Scheduler.Greedy_min_phi ->
          (* Trial-evaluate Φ after each candidate's move (set, measure,
             restore — P.potential reads the configuration directly, so
             the probe is invisible elsewhere). Undefined Φ scores +∞;
             ties go to the smallest id (candidates are increasing). *)
          let maximize = strategy = Scheduler.Greedy_max_phi in
          let score v =
            match P.step (view_net net states v) with
            | None -> None (* cannot happen: flag is fresh *)
            | Some s ->
                let old = states.(v) in
                states.(v) <- s;
                let phi = P.potential g states in
                states.(v) <- old;
                Some (match phi with Some p -> p | None -> max_int)
          in
          let best =
            List.fold_left
              (fun best v ->
                match score v with
                | None -> best
                | Some sc -> (
                    match best with
                    | None -> Some (v, sc)
                    | Some (_, bs) ->
                        if (if maximize then sc > bs else sc < bs) then Some (v, sc)
                        else best))
              None candidates
          in
          fst (Option.get best)
    in
    (* [pending] = nodes enabled at the start of the current round that have
       neither stepped nor been observed non-activatable (Section II-A). *)
    let pending = Hashtbl.create 64 in
    let reset_pending () =
      Hashtbl.reset pending;
      for v = 0 to n - 1 do
        if is_enabled.(v) then Hashtbl.replace pending v ()
      done
    in
    reset_pending ();
    let prune_pending () =
      let stale =
        Hashtbl.fold
          (fun v () acc -> if not is_enabled.(v) then v :: acc else acc)
          pending []
      in
      List.iter (fun v -> Hashtbl.remove pending v) stale;
      if Hashtbl.length pending = 0 then begin
        incr rounds;
        round_boundary ();
        if !enabled_count > 0 then reset_pending ()
      end
    in
    while (not !stop) && !enabled_count > 0 && !steps < max_steps && !rounds < max_rounds
    do
      (match sched with
      | Scheduler.Synchronous ->
          let snapshot = Array.copy states in
          let moves =
            List.filter_map
              (fun v ->
                match P.step (view_net net snapshot v) with
                | Some s -> Some (v, s)
                | None -> None)
              (enabled_list ())
          in
          List.iter
            (fun (v, s) ->
              if not !stop then begin
                apply v s;
                Hashtbl.remove pending v
              end)
            moves
      | Scheduler.Central strategy ->
          let candidates = enabled_list () in
          let v = pick_central strategy candidates in
          (match P.step (view_net net states v) with
          | Some s -> apply v s
          | None -> () (* cannot happen: flag is fresh *));
          Hashtbl.remove pending v
      | Scheduler.Distributed p ->
          let candidates = enabled_list () in
          let chosen =
            List.filter (fun _ -> Random.State.float rng 1.0 < p) candidates
          in
          let chosen =
            match chosen with
            | [] -> [ List.nth candidates (Random.State.int rng (List.length candidates)) ]
            | l -> l
          in
          (* Nodes act one after another on the live configuration (the
             state model is read/write atomic per node). *)
          List.iter
            (fun v ->
              if not !stop then
                match P.step (view_net net states v) with
                | Some s ->
                    apply v s;
                    Hashtbl.remove pending v
                | None -> ())
            chosen);
      prune_pending ()
    done;
    let silent = !enabled_count = 0 in
    {
      states;
      steps = !steps;
      rounds = !rounds;
      silent;
      legal = P.is_legal g states;
      max_bits = !max_bits;
    }
end
