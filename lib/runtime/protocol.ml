module type S = sig
  type state

  val equal_state : state -> state -> bool
  val pp_state : Format.formatter -> state -> unit
  val size_bits : int -> state -> int
  val initial : Repro_graph.Graph.t -> int -> state
  val random_state : Random.State.t -> Repro_graph.Graph.t -> int -> state
  val step : state View.t -> state option
  val is_legal : Repro_graph.Graph.t -> state array -> bool
  val potential : Repro_graph.Graph.t -> state array -> int option
  val classify : (state -> state -> string) option
end

module type CODEC = sig
  type state

  val pack : n:int -> state -> int array
  val unpack : n:int -> int array -> state
end

module type PACKED = sig
  include S

  val words : int
  val pack : n:int -> state -> int array
  val unpack : n:int -> int array -> state
  val step_packed : Pview.t -> bool
  val certify : Repro_graph.Graph.t -> int array array -> int -> bool
  val certify_tree : Repro_graph.Graph.t -> int array array -> bool
  val n_sensitive : n:int -> n':int -> int array array -> int -> bool
end

let certified_bank ~certify ~certify_tree g bank =
  certify_tree g bank
  &&
  let n = Repro_graph.Graph.n g in
  let rec go v = v >= n || (certify g bank v && go (v + 1)) in
  go 0

let certified ~words ~pack ~certify ~certify_tree g sts =
  let n = Repro_graph.Graph.n g in
  Array.length sts = n
  &&
  let bank = Array.init words (fun _ -> Array.make n 0) in
  Array.iteri
    (fun v s ->
      let a = pack ~n s in
      for f = 0 to words - 1 do
        bank.(f).(v) <- a.(f)
      done)
    sts;
  certified_bank ~certify ~certify_tree g bank
