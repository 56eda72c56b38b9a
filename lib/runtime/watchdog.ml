type verdict =
  | Converged
  | Livelock of { round : int; period : int }
  | Stalled of { round : int; window : int }
  | Exhausted of { rounds : int }

let verdict_name = function
  | Converged -> "converged"
  | Livelock _ -> "livelock"
  | Stalled _ -> "stalled"
  | Exhausted _ -> "exhausted"

let verdict_names = [ "converged"; "livelock"; "stalled"; "exhausted" ]

let pp_verdict ppf = function
  | Converged -> Format.pp_print_string ppf "converged"
  | Livelock { round; period } ->
      Format.fprintf ppf "livelock (configuration cycle of period %d at round %d)" period
        round
  | Stalled { round; window } ->
      Format.fprintf ppf "stalled (no new potential minimum for %d rounds at round %d)"
        window round
  | Exhausted { rounds } ->
      Format.fprintf ppf "exhausted (limits hit at %d rounds, no pattern)" rounds

(* One bucket per distinct configuration observed under a hash. [bsnap]
   is the serialized configuration, [None] for a first occurrence (the
   verifier runs only on recurrence). *)
type bucket = { mutable bsnap : string option; mutable bcount : int; mutable blast : int }

type t = {
  stall_window : int;
  cycle_repeats : int;
  watch_phi : bool;
  observe_only : bool;
  mutable observed : int;
  (* hash -> occurrence buckets *)
  round_seen : (int, bucket list) Hashtbl.t;
  mutable best_phi : int option;
  mutable best_phi_round : int;
  mutable last_round : int;
  mutable tripped : verdict option;
}

let create ?(stall_window = 64) ?(cycle_repeats = 3) ?(watch_phi = false)
    ?(observe_only = false) () =
  {
    stall_window;
    cycle_repeats;
    watch_phi;
    observe_only;
    observed = 0;
    round_seen = Hashtbl.create 256;
    best_phi = None;
    best_phi_round = 0;
    last_round = 0;
    tripped = None;
  }

let reset t =
  t.observed <- 0;
  Hashtbl.reset t.round_seen;
  t.best_phi <- None;
  t.tripped <- None

let trip t v = if t.tripped = None then t.tripped <- Some v

let bump b ~repeats ~index =
  b.bcount <- b.bcount + 1;
  let last = b.blast in
  b.blast <- index;
  if b.bcount >= repeats then Some (max 1 (index - last)) else None

let cycle tbl ~repeats ~index ~hash ~snap =
  match Hashtbl.find_opt tbl hash with
  | None | Some [] ->
      (* First sight of this hash: no snapshot taken — the verifier runs
         only on recurrence, so unique configurations (the common case)
         never pay for serialization. *)
      Hashtbl.replace tbl hash [ { bsnap = None; bcount = 1; blast = index } ];
      None
  | Some buckets -> (
      let sn = snap () in
      let rec find = function
        | [] -> None
        | b :: rest -> (
            match b.bsnap with
            | Some s when String.equal s sn -> Some b
            | Some _ -> find rest
            | None ->
                (* The first occurrence predates verification; credit it
                   to this snapshot. At most one benign collision can
                   inflate a bucket by one — within what the default
                   [cycle_repeats = 3] tolerates. *)
                b.bsnap <- Some sn;
                Some b)
      in
      match find buckets with
      | Some b -> bump b ~repeats ~index
      | None ->
          Hashtbl.replace tbl hash
            ({ bsnap = Some sn; bcount = 1; blast = index } :: buckets);
          None)

let observe_round ~snap t ~round ~hash ~phi =
  t.last_round <- round;
  t.observed <- t.observed + 1;
  (match cycle t.round_seen ~repeats:t.cycle_repeats ~index:round ~hash ~snap with
  | Some period -> trip t (Livelock { round; period })
  | None -> ());
  match phi with
  | Some p ->
      (match t.best_phi with
      | None ->
          t.best_phi <- Some p;
          t.best_phi_round <- round
      | Some best when p < best ->
          t.best_phi <- Some p;
          t.best_phi_round <- round
      | Some _ -> ());
      if t.best_phi <> None && round - t.best_phi_round >= t.stall_window then
        trip t (Stalled { round; window = t.stall_window })
  | None -> ()

let tripped t = t.tripped
let last_round t = t.last_round
let watches_phi t = t.watch_phi
let stops t = (not t.observe_only) && t.tripped <> None
let observed t = t.observed

let verdict t ~silent =
  if silent then Converged
  else
    match t.tripped with
    | Some v -> v
    | None -> Exhausted { rounds = t.last_round }

(* A protocol-agnostic configuration fingerprint. [Hashtbl.hash]'s
   default traversal limits would make distinct deep registers collide
   systematically, so every register is hashed with generous limits and
   the per-node hashes are mixed positionally. A collision costs one
   serialization: [observe_round] verifies every repeated hash. *)
let config_hash states =
  let h = ref 0x9E3779B9 in
  Array.iter
    (fun s -> h := (!h * 31) + Hashtbl.hash_param 64 256 s)
    states;
  !h land max_int
