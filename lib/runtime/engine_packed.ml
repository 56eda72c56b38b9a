module Graph = Repro_graph.Graph

module Make (P : Protocol.PACKED) = struct
  type state = P.state

  (* The packed store. Registers live in a bank of [P.words] int lanes
     ([bank.(f).(v)]), moves are cached as packed words ([mv.(f).(v)]
     holds lane [f] of [v]'s pending move; liveness is the loop's
     enabled set), and one reusable {!Pview.t} serves every guard
     probe, so probes and commits allocate nothing.

     Hooks that read boxed states get [mirror], built on the first
     such read and then kept current lazily: a commit only marks the
     node [stale], and the next read re-boxes the marked nodes. A run
     with no such hook never boxes a register until its result.

     [size_bits] is content-independent (PACKED contract), so register
     bits are the constant [reg_bits], and a packed move always differs
     from the register it replaces (silence is syntactic in every
     builder), so a commit always dirties its closed neighborhood. *)
  module Store = struct
    module P = P

    type regs = int array array

    type t = {
      n : int;
      bank : int array array;
      mv : int array array;
      pv : Pview.t;
      tmp : int array;
      reg_bits : int;
      mutable mirror : P.state array;
      stale : Bitset.t;
    }

    let unbox t lanes v =
      for f = 0 to P.words - 1 do
        t.tmp.(f) <- lanes.(f).(v)
      done;
      P.unpack ~n:t.n t.tmp

    let create ?profile:_ g bank =
      let n = Graph.n g in
      if Array.length bank <> P.words || Array.exists (fun lane -> Array.length lane <> n) bank
      then invalid_arg "Engine_packed.run_bank: bank shape is not words x n";
      let reg_bits =
        if n = 0 then 0 else P.size_bits n (P.unpack ~n (Array.map (fun lane -> lane.(0)) bank))
      in
      {
        n;
        bank;
        mv = Array.init P.words (fun _ -> Array.make n 0);
        pv = Pview.of_graph g ~bank;
        tmp = Array.make P.words 0;
        reg_bits;
        mirror = [||];
        stale = Bitset.create n;
      }

    let probe t v =
      let pv = t.pv in
      pv.Pview.focus <- v;
      P.step_packed pv
      && begin
           for f = 0 to P.words - 1 do
             t.mv.(f).(v) <- pv.Pview.move.(f)
           done;
           true
         end

    let commit t v =
      for f = 0 to P.words - 1 do
        t.bank.(f).(v) <- t.mv.(f).(v)
      done;
      if Array.length t.mirror > 0 then Bitset.add t.stale v;
      true

    let register t v = unbox t t.bank v
    let move t v = unbox t t.mv v

    let config t =
      if Array.length t.mirror <> t.n then begin
        t.mirror <- Array.init t.n (register t);
        Bitset.clear t.stale
      end
      else if not (Bitset.is_empty t.stale) then begin
        Bitset.iter (fun v -> t.mirror.(v) <- register t v) t.stale;
        Bitset.clear t.stale
      end;
      t.mirror

    let overwrite t v s =
      let mirror = config t in
      mirror.(v) != s
      && begin
           mirror.(v) <- s;
           let a = P.pack ~n:t.n s in
           for f = 0 to P.words - 1 do
             t.bank.(f).(v) <- a.(f)
           done;
           true
         end

    let bits t _ = t.reg_bits
    let bits_summary t = (t.reg_bits, t.n * t.reg_bits)
  end

  include Engine.Loop (Store)

  let pack_bank ~n init =
    let words = P.words in
    let bank = Array.init words (fun _ -> Array.make n 0) in
    for v = 0 to n - 1 do
      let a = P.pack ~n init.(v) in
      if Array.length a <> words then
        invalid_arg "Engine_packed.pack_bank: pack returned the wrong width";
      for f = 0 to words - 1 do
        bank.(f).(v) <- a.(f)
      done
    done;
    bank

  let run_bank ?max_steps ?max_rounds ?on_round ?on_step ?adversary ?stop_when ?events
      ?profile ?init_causes ?round_offset ?step_offset g sched rng ~bank =
    run ?max_steps ?max_rounds ?on_round ?on_step ?adversary ?stop_when ?events ?profile
      ?init_causes ?round_offset ?step_offset g sched rng ~init:bank

  let run ?max_steps ?max_rounds ?on_round ?on_step ?adversary ?stop_when ?events ?profile
      ?init_causes ?round_offset ?step_offset g sched rng ~init =
    run_bank ?max_steps ?max_rounds ?on_round ?on_step ?adversary ?stop_when ?events
      ?profile ?init_causes ?round_offset ?step_offset g sched rng
      ~bank:(pack_bank ~n:(Graph.n g) init)
end
