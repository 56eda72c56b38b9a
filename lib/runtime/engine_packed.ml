module Graph = Repro_graph.Graph

(* A 63-bit finalizer for the per-node lane hashes of the watchdog's
   fingerprint. Collisions only cost a serialization: the watchdog
   verifies every repeated fingerprint against the exact bank. *)
let mix x =
  let x = (x lxor (x lsr 29)) * 0x2545F4914F6CDD1D in
  let x = (x lxor (x lsr 32)) * 0x1CE4E5B9AE5B in
  x lxor (x lsr 29)

module Make (P : Protocol.PACKED) = struct
  type state = P.state

  type stats = Engine.stats = {
    steps : int;
    rounds : int;
    silent : bool;
    legal : bool;
    max_bits : int;
  }

  (* The packed store. Registers live in a bank of [P.words] int lanes
     ([bank.(f).(v)]), moves are cached as packed words ([mv.(f).(v)]
     holds lane [f] of [v]'s pending move; liveness is the loop's
     enabled set), and one reusable {!Pview.t} serves every guard
     probe, so probes and commits allocate nothing.

     Hooks that read boxed states get [mirror], built on the first
     such read and then kept current lazily: a commit only marks the
     node [stale], and the next read re-boxes the marked nodes. A run
     with no such hook never boxes a register.

     On a watched store [fp] is the bank's fingerprint, the sum of
     [node_hash] over all nodes, kept current by every write in
     O(words). A bank the caller owns ([run_bank]) is journaled: the
     first write to a node saves its lanes into [jbuf], so a raising
     run can be rolled back without copying the bank up front. [prev]
     holds the lanes the last write replaced, for [previous].

     [size_bits] is content-independent (PACKED contract), so register
     bits are the constant [reg_bits], and a packed move always differs
     from the register it replaces (silence is syntactic in every
     builder), so a commit always dirties its closed neighborhood.

     The sweeps walk their bitsets' words in place and decide once per
     sweep whether a write needs any bookkeeping (journal, fingerprint,
     mirror, a per-node hook): the steady-state synchronous round of
     an unwatched fresh bank is two loops over lanes and words. *)
  module Store = struct
    module P = P

    (* The bank, and whether the caller owns it (journal its writes). *)
    type regs = int array array * bool

    type t = {
      n : int;
      bank : int array array;
      mv : int array array;
      pv : Pview.t;
      tmp : int array;
      prev : int array;
      reg_bits : int;
      mutable mirror : P.state array;
      stale : Bitset.t;
      watched : bool;
      mutable fp : int;
      journal : bool;
      saved : Bitset.t;
      mutable jbuf : int array;
      mutable jlen : int;
    }

    let unbox t lanes v =
      for f = 0 to P.words - 1 do
        t.tmp.(f) <- lanes.(f).(v)
      done;
      P.unpack ~n:t.n t.tmp

    (* A multiply-add chain over the node's id and lanes, finalized
       once. *)
    let node_hash bank v =
      let h = ref (v + 1) in
      for f = 0 to P.words - 1 do
        h := (!h * 0x1E3779B97F4A7C15) + bank.(f).(v)
      done;
      mix !h

    let bank_fingerprint bank n =
      let fp = ref 0 in
      for v = 0 to n - 1 do
        fp := !fp + node_hash bank v
      done;
      !fp

    let create ?profile:_ ~watched g (bank, journal) =
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
        prev = Array.make P.words 0;
        reg_bits;
        mirror = [||];
        stale = Bitset.create n;
        watched;
        fp = (if watched then bank_fingerprint bank n else 0);
        journal;
        saved = Bitset.create (if journal then n else 0);
        jbuf = (if journal then Array.make (16 * (P.words + 1)) 0 else [||]);
        jlen = 0;
      }

    (* Bookkeeping around a write of [v]'s lanes: journal the first
       write, keep the old lanes for [previous], and swap [v]'s hash in
       the fingerprint. *)
    let before_write t v =
      if t.journal && not (Bitset.mem t.saved v) then begin
        Bitset.add t.saved v;
        let w = P.words + 1 in
        if t.jlen + w > Array.length t.jbuf then begin
          let grown = Array.make (2 * Array.length t.jbuf) 0 in
          Array.blit t.jbuf 0 grown 0 t.jlen;
          t.jbuf <- grown
        end;
        t.jbuf.(t.jlen) <- v;
        for f = 0 to P.words - 1 do
          t.jbuf.(t.jlen + 1 + f) <- t.bank.(f).(v)
        done;
        t.jlen <- t.jlen + w
      end;
      for f = 0 to P.words - 1 do
        t.prev.(f) <- t.bank.(f).(v)
      done;
      if t.watched then t.fp <- t.fp - node_hash t.bank v

    let after_write t v = if t.watched then t.fp <- t.fp + node_hash t.bank v

    (* [v]'s cached move into the bank; the mirror learns it lazily. *)
    let write_move t v =
      before_write t v;
      for f = 0 to P.words - 1 do
        t.bank.(f).(v) <- t.mv.(f).(v)
      done;
      after_write t v;
      if Array.length t.mirror > 0 then Bitset.add t.stale v

    let mark_closed t dirty v =
      Bitset.add dirty v;
      let row = t.pv.Pview.row and col = t.pv.Pview.col in
      for i = row.(v) to row.(v + 1) - 1 do
        Bitset.add dirty col.(i)
      done

    let commit t v ~dirty =
      write_move t v;
      mark_closed t dirty v;
      true

    let commit_sweep t batch ~dirty visit =
      let bank = t.bank and mv = t.mv and words = P.words in
      let row = t.pv.Pview.row and col = t.pv.Pview.col in
      let bw = Bitset.words batch and dw = Bitset.words dirty in
      (* Without a hook the mirror cannot appear mid-sweep. *)
      let plain =
        Option.is_none visit && (not t.journal) && (not t.watched) && Array.length t.mirror = 0
      in
      let go = ref true and w = ref 0 in
      while !go && !w < Array.length bw do
        let bits = ref bw.(!w) in
        while !go && !bits <> 0 do
          let b = !bits land - !bits in
          bits := !bits lxor b;
          let v = (!w lsl 5) lor Bitset.bit_index b in
          if plain then
            for f = 0 to words - 1 do
              bank.(f).(v) <- mv.(f).(v)
            done
          else write_move t v;
          dw.(v lsr 5) <- dw.(v lsr 5) lor (1 lsl (v land 31));
          for i = row.(v) to row.(v + 1) - 1 do
            let u = col.(i) in
            dw.(u lsr 5) <- dw.(u lsr 5) lor (1 lsl (u land 31))
          done;
          match visit with Some f -> go := f v true | None -> ()
        done;
        incr w
      done;
      Bitset.recount dirty;
      if Bitset.is_empty batch then 0 else t.reg_bits

    let probe_sweep t dirty ~enabled visit =
      let pv = t.pv and mv = t.mv and words = P.words in
      let out = pv.Pview.move in
      let dw = Bitset.words dirty and ew = Bitset.words enabled in
      for w = 0 to Array.length dw - 1 do
        let d = dw.(w) in
        if d <> 0 then begin
          let e = ref ew.(w) and bits = ref d in
          while !bits <> 0 do
            let b = !bits land - !bits in
            bits := !bits lxor b;
            let v = (w lsl 5) lor Bitset.bit_index b in
            pv.Pview.focus <- v;
            let now = P.step_packed pv in
            if now then begin
              for f = 0 to words - 1 do
                mv.(f).(v) <- out.(f)
              done;
              e := !e lor b
            end
            else e := !e land lnot b;
            match visit with Some f -> f v (ew.(w) land b <> 0) now | None -> ()
          done;
          Bitset.set_word enabled w !e;
          Bitset.set_word dirty w 0
        end
      done

    let register t v = unbox t t.bank v
    let move t v = unbox t t.mv v
    let previous t _ = P.unpack ~n:t.n t.prev

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

    let overwrite t v s ~dirty =
      let mirror = config t in
      mirror.(v) != s
      && begin
           mirror.(v) <- s;
           let a = P.pack ~n:t.n s in
           before_write t v;
           for f = 0 to P.words - 1 do
             t.bank.(f).(v) <- a.(f)
           done;
           after_write t v;
           mark_closed t dirty v;
           true
         end

    let bits t _ = t.reg_bits
    let bits_summary t = (t.reg_bits, t.n * t.reg_bits)
    let fingerprint t = t.fp
    let serialize t = Marshal.to_string t.bank []

    let legal t g = function
      | None ->
          Protocol.certified_bank ~certify:P.certify ~certify_tree:P.certify_tree g t.bank
      | Some near ->
          P.certify_tree g t.bank
          && Bitset.fold (fun ok v -> ok && P.certify g t.bank v) true near

    let rollback t =
      let w = P.words + 1 in
      let i = ref 0 in
      while !i < t.jlen do
        let v = t.jbuf.(!i) in
        for f = 0 to P.words - 1 do
          t.bank.(f).(v) <- t.jbuf.(!i + 1 + f)
        done;
        i := !i + w
      done
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

  let seeds bank g ~old_n affected =
    let n = Graph.n g in
    let mark = Bitset.create n in
    List.iter (Bitset.add mark) affected;
    if n <> old_n then begin
      let row = Graph.csr_row g and col = Graph.csr_col g in
      for u = 0 to n - 1 do
        if P.n_sensitive ~n:old_n ~n':n bank u then begin
          Bitset.add mark u;
          for i = row.(u) to row.(u + 1) - 1 do
            Bitset.add mark col.(i)
          done
        end
      done
    end;
    Array.of_list (Bitset.to_list mark)

  let run_bank ?max_steps ?max_rounds ?on_round ?on_step ?adversary ?stop_when ?watchdog
      ?warm ?events ?profile g sched rng ~bank =
    snd
      (exec ?max_steps ?max_rounds ?on_round ?on_step ?adversary ?stop_when ?watchdog ?warm
         ?events ?profile g sched rng ~init:(bank, true))

  (* A fresh bank nobody else holds: no journal, and the result boxes
     the final configuration once. *)
  let run ?max_steps ?max_rounds ?on_round ?on_step ?adversary ?stop_when ?watchdog ?warm
      ?events ?profile g sched rng ~init =
    run ?max_steps ?max_rounds ?on_round ?on_step ?adversary ?stop_when ?watchdog ?warm
      ?events ?profile g sched rng
      ~init:(pack_bank ~n:(Graph.n g) init, false)
end
