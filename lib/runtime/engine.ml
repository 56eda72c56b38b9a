module Graph = Repro_graph.Graph

type ('state, 'k) runner =
  ?max_steps:int ->
  ?max_rounds:int ->
  ?track_legal:bool ->
  ?stop_when_legal:bool ->
  ?on_round:(int -> 'state array -> unit) ->
  ?on_step:(int -> 'state array -> unit) ->
  ?adversary:(round:int -> 'state array -> (int * 'state) list) ->
  ?stop_when:(unit -> bool) ->
  ?events:Events.t ->
  ?profile:Profile.t ->
  ?init_causes:(int -> int list) ->
  ?round_offset:int ->
  ?step_offset:int ->
  Graph.t ->
  Scheduler.t ->
  Random.State.t ->
  'k

module type S = sig
  type state

  type result = {
    states : state array;
    steps : int;
    rounds : int;
    silent : bool;
    legal : bool;
    max_bits : int;
    first_legal_round : int option;
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

  val create : ?profile:Profile.t -> Graph.t -> regs -> t
  val probe : t -> int -> bool
  val commit : t -> int -> bool
  val overwrite : t -> int -> P.state -> bool
  val register : t -> int -> P.state
  val move : t -> int -> P.state
  val bits : t -> int -> int
  val bits_summary : t -> int * int
  val config : t -> P.state array
end

(* ------------------------------------------------------------------ *)
(* The incremental executor. Trajectory-identical to [run_reference]
   (the equivalence suites pin this on both stores):

   - Move cache: the store memoizes the move [P.step] returned the last
     time [v]'s view changed ([St.probe]), so a write applies the cached
     register ([St.commit]) instead of re-running the guard; membership
     in [enabled] says whether the cached move is live.
   - Enabled set: an intrusive doubly-linked list + bitset mirror
     ({!Enabled_set}) — O(1) insert/remove, O(Δ) guard probes per
     write, and daemons enumerate only the enabled nodes instead of
     rescanning all n.
   - Round accounting: [pending] is a bitset; pruning it is a
     word-wise AND against the enabled set.

   Under the synchronous daemon the guard re-probes of a whole batch
   of writes are coalesced: marking is O(Δ) per write, and each node
   in the union of the writers' closed neighborhoods is re-evaluated
   once per round rather than once per writing neighbor. The cache is
   only read at round boundaries there, so deferral is unobservable.
   The sequential daemons flush after every write because the next
   guard read happens immediately.

   With no hook attached the steady-state loop allocates nothing on
   the packed store (pinned by a [Gc.minor_words] test): the scans
   below are hoisted closures over preallocated refs. *)

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
    first_legal_round : int option;
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

  let run ?(max_steps = 10_000_000) ?(max_rounds = 200_000) ?(track_legal = false)
      ?(stop_when_legal = false) ?on_round ?on_step ?adversary ?stop_when ?events ?profile
      ?init_causes ?(round_offset = 0) ?(step_offset = 0) g sched rng ~init =
    let st = St.create ?profile g init in
    let n = Graph.n g in
    let row = Graph.csr_row g and col = Graph.csr_col g in
    let steps = ref 0 in
    let rounds = ref 0 in
    let max_bits = ref (fst (St.bits_summary st)) in
    let first_legal = ref None in
    let stop = ref false in
    let poll_stop () =
      match stop_when with Some f -> if f () then stop := true | None -> ()
    in
    (* Causal provenance (allocated only when an event sink is attached):
       [cause_buf.(v)] accumulates the ids of the events whose writes
       dirtied [v]'s view since [v]'s guard last consumed them;
       [enablers.(v)] freezes, at the moment [v]'s cached move (re-)
       appears, the ids that woke it — emitted as that move's [causes].
       [cur_eid] is the id of the write being propagated by [touch]. *)
    let tracing = events <> None in
    let cause_buf = if tracing then Array.make n [] else [||] in
    let enablers = if tracing then Array.make n [] else [||] in
    let just_moved = if tracing then Array.make n false else [||] in
    let cur_eid = ref (-1) in
    let move_phi =
      match events with Some e -> Events.wants_move_phi e | None -> false
    in
    let last_phi = ref None in
    (* Rule tags re-box the old register and the move; only a sink or a
       profile reads them. *)
    let classify = if tracing || profile <> None then P.classify else None in
    let enabled = Enabled_set.create n in
    let recompute v =
      (match profile with Some p -> Profile.on_guard p | None -> ());
      let was = Enabled_set.mem enabled v in
      let now = St.probe st v in
      if tracing then begin
        if now && ((not was) || just_moved.(v)) then enablers.(v) <- List.rev cause_buf.(v)
        else if not now then enablers.(v) <- [];
        just_moved.(v) <- false;
        cause_buf.(v) <- []
      end;
      (match profile with Some p -> if was <> now then Profile.on_churn p | None -> ());
      if now then Enabled_set.add enabled v else Enabled_set.remove enabled v
    in
    for v = 0 to n - 1 do
      recompute v
    done;
    (* Seed provenance for nodes the *initial configuration* enables:
       the caller knows why they are enabled (e.g. chaos injected faults
       into a silent configuration and emitted the fault events itself).
       Nodes the callback maps to [] stay root-spontaneous. *)
    (match init_causes with
    | Some f when tracing ->
        for v = 0 to n - 1 do
          if Enabled_set.mem enabled v then enablers.(v) <- f v
        done
    | _ -> ());
    if move_phi then last_phi := P.potential g (St.config st);
    let dirty = Bitset.create n in
    let mark u =
      Bitset.add dirty u;
      if tracing && !cur_eid >= 0 then cause_buf.(u) <- !cur_eid :: cause_buf.(u)
    in
    let touch v =
      (match profile with Some p -> Profile.on_touch p | None -> ());
      if tracing then begin
        mark v;
        for i = row.(v) to row.(v + 1) - 1 do
          mark col.(i)
        done
      end
      else begin
        Bitset.add dirty v;
        for i = row.(v) to row.(v + 1) - 1 do
          Bitset.add dirty col.(i)
        done
      end
    in
    let flush () =
      if not (Bitset.is_empty dirty) then begin
        (match profile with Some p -> Profile.on_flush p | None -> ());
        Bitset.iter recompute dirty;
        Bitset.clear dirty
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
              if St.overwrite st v s then begin
                max_bits := max !max_bits (St.bits st v);
                (* A mid-run corruption is a DAG source: the fault event
                   becomes the cause of every move it wakes up. *)
                (match events with
                | Some sink ->
                    cur_eid := Events.emit_fault sink ~node:v ~round:(round_offset + !rounds)
                | None -> ());
                touch v;
                cur_eid := -1
              end)
            (f ~round:!rounds (St.config st));
          if move_phi then last_phi := P.potential g (St.config st);
          flush ()
    in
    (* Adversary bookkeeping. *)
    let last_step_time = Array.make n (-1) in
    let rr_cursor = ref 0 in
    let pending = Bitset.create n in
    let apply ~defer v =
      let rule =
        match classify with
        | Some f -> Some (f (St.register st v) (St.move st v))
        | None -> None
      in
      let bits_before = if tracing then St.bits st v else 0 in
      let changed = St.commit st v in
      incr steps;
      last_step_time.(v) <- !steps;
      let bits = St.bits st v in
      if bits > !max_bits then max_bits := bits;
      (match profile with Some p -> Profile.on_move ?rule p | None -> ());
      (match events with
      | Some sink ->
          let dphi =
            if move_phi then begin
              let np = P.potential g (St.config st) in
              let d =
                match (!last_phi, np) with Some a, Some b -> Some (b - a) | _ -> None
              in
              last_phi := np;
              d
            end
            else None
          in
          cur_eid :=
            Events.emit_move sink ~node:v ~step:(step_offset + !steps)
              ~round:(round_offset + !rounds) ?rule ~bits_before ~bits_after:bits ?dphi
              ~causes:enablers.(v) ();
          enablers.(v) <- [];
          just_moved.(v) <- true
      | None -> ());
      (* A physically unchanged register leaves every view — including
         the writer's own — bit-identical, so the caches stay valid. *)
      if changed then touch v;
      cur_eid := -1;
      if not defer then flush ();
      Bitset.remove pending v;
      (match on_step with Some f -> f v (St.config st) | None -> ());
      poll_stop ()
    in
    let round_boundary () =
      (match events with
      | Some sink ->
          let phi =
            if Events.wants_phi sink then P.potential g (St.config st) else None
          in
          Events.emit_round sink
            ~round:(round_offset + !rounds)
            ~enabled:(Enabled_set.cardinal enabled)
            ~bits:(St.bits_summary st) ~phi
      | None -> ());
      (match on_round with Some f -> f !rounds (St.config st) | None -> ());
      (if (track_legal || stop_when_legal) && !first_legal = None then
         if P.is_legal g (St.config st) then begin
           first_legal := Some !rounds;
           if stop_when_legal then stop := true
         end);
      poll_stop ();
      if not !stop then inject ()
    in
    round_boundary ();
    (* Daemon picks. The published semantics enumerate candidates in
       increasing node order ([run_reference] builds its list that way),
       so the order-sensitive picks — random's index draw, the
       distributed coin flips, the synchronous batch — go through the
       sorted bitset enumeration; the extremal picks scan the linked
       list, since their result is order-independent. *)
    let batch = Bitset.create n in
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
      Enabled_set.iter f enabled;
      !scan_best
    in
    let pick_central strategy =
      match strategy with
      | Scheduler.Random_daemon ->
          Enabled_set.nth_sorted enabled
            (Random.State.int rng (Enabled_set.cardinal enabled))
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
              None (Enabled_set.sorted enabled)
          in
          fst (Option.get best)
    in
    let reset_pending () = Enabled_set.snapshot enabled pending in
    reset_pending ();
    let prune_pending () =
      (* Drop every pending node no longer activatable; nodes that
         stepped were removed by [apply]. *)
      Bitset.inter_inplace pending (Enabled_set.bits enabled);
      if Bitset.is_empty pending then begin
        incr rounds;
        round_boundary ();
        if not (Enabled_set.is_empty enabled) then reset_pending ()
      end
    in
    let apply_deferred v = if not !stop then apply ~defer:true v in
    (* A write earlier in the same distributed batch may have disabled
       this candidate: its cached move is no longer live. *)
    let apply_live v = if (not !stop) && Enabled_set.mem enabled v then apply ~defer:false v in
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
      && (not (Enabled_set.is_empty enabled))
      && !steps < max_steps && !rounds < max_rounds
    do
      (match sched with
      | Scheduler.Synchronous ->
          (* The caches were recomputed against the round-top
             configuration, which is exactly the snapshot the reference
             engine evaluates moves on — apply the frozen round-top
             movers directly and re-probe the dirtied closed
             neighborhoods once at the end of the batch. *)
          Enabled_set.snapshot enabled batch;
          Bitset.iter apply_deferred batch;
          flush ()
      | Scheduler.Central strategy -> apply ~defer:false (pick_central strategy)
      | Scheduler.Distributed _ ->
          Enabled_set.snapshot enabled batch;
          Bitset.clear chosen;
          Bitset.iter flip batch;
          if Bitset.is_empty chosen then
            Bitset.add chosen (Bitset.nth batch (Random.State.int rng (Bitset.cardinal batch)));
          Bitset.iter apply_live chosen);
      prune_pending ()
    done;
    let states = St.config st in
    {
      states;
      steps = !steps;
      rounds = !rounds;
      silent = Enabled_set.is_empty enabled;
      legal = P.is_legal g states;
      max_bits = !max_bits;
      first_legal_round = !first_legal;
    }
end

(* ------------------------------------------------------------------ *)
(* The boxed store: a [P.state array], the move cache and one scratch
   [View.t] per node for the whole run. [moves.(v)] is [v]'s cached
   move while [v] is enabled (the loop's enabled set says when) and a
   stale register otherwise, like the packed store's move lanes. A
   guard probe re-points the view's [self] and [nbrs] slots in place
   only when a write has landed in the node's closed neighborhood since
   the last probe ([stale]), so guard probes stop allocating. *)

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
      scratch : P.state View.t array;
      ids : int array array;
      stale : bool array;
      profile : Profile.t option;
    }

    let create ?profile g init =
      let net = net_of g in
      let states = Array.copy init in
      let n = Graph.n g in
      {
        states;
        moves = Array.copy states;
        scratch = Array.init n (fun v -> view_net net states v);
        ids = net.ids;
        stale = Array.make n false;
        profile;
      }

    let invalidate t v =
      t.stale.(v) <- true;
      let ids = t.ids.(v) in
      for i = 0 to Array.length ids - 1 do
        t.stale.(ids.(i)) <- true
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

    let move t v = t.moves.(v)
    let register t v = t.states.(v)

    let overwrite t v s =
      t.states.(v) != s
      && begin
           t.states.(v) <- s;
           invalidate t v;
           true
         end

    let commit t v = overwrite t v (move t v)
    let bits t v = P.size_bits (Array.length t.states) t.states.(v)

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
  end

  include Loop (Store)

  (* ------------------------------------------------------------------ *)
  (* The naive executor: the semantics oracle. Every guard probe builds
     a fresh view, every write re-evaluates [P.step] once to recompute
     activation flags and once more to obtain the written register, and
     the per-round [pending] set is a Hashtbl. Kept verbatim so the
     incremental [run] ([Loop]) can be property-tested against it on
     both stores (test_engine_equiv, test_packed). *)

  let run_reference ?(max_steps = 10_000_000) ?(max_rounds = 200_000)
      ?(track_legal = false) ?(stop_when_legal = false) ?on_round ?on_step ?adversary
      ?stop_when g sched rng ~init =
    let net = net_of g in
    let states = Array.copy init in
    let n = Graph.n g in
    let steps = ref 0 in
    let rounds = ref 0 in
    let max_bits = ref (max_bits_of states) in
    let first_legal = ref None in
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
      (if (track_legal || stop_when_legal) && !first_legal = None then
        if P.is_legal g states then begin
          first_legal := Some !rounds;
          if stop_when_legal then stop := true
        end);
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
      first_legal_round = !first_legal;
    }
end
