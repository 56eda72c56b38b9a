type 'v t = { value : 'v; hops : int }

(* The fold keeps the first best candidate: a neighbor replaces the
   current best only when strictly better — a smaller value, or an equal
   value at fewer hops — so the base wins every tie and earlier
   neighbors win ties among themselves. A neighbor's record is rebuilt
   with [hops + 1] only when it wins. *)
let target ~compare ~n ~base ~nbrs ~get =
  let best = ref (match base with Some v -> Some { value = v; hops = 0 } | None -> None) in
  for i = 0 to Array.length nbrs - 1 do
    match get nbrs.(i) with
    | Some { value; hops } when hops + 1 < n -> (
        match !best with
        | None -> best := Some { value; hops = hops + 1 }
        | Some cur ->
            let c = compare value cur.value in
            if c < 0 || (c = 0 && hops + 1 < cur.hops) then
              best := Some { value; hops = hops + 1 })
    | _ -> ()
  done;
  !best

let equal eq a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> eq x.value y.value && x.hops = y.hops
  | _ -> false

let step ~compare ~n ~base ~self ~nbrs ~get =
  let fresh = target ~compare ~n ~base ~nbrs ~get in
  if equal (fun a b -> compare a b = 0) fresh self then None else Some fresh
