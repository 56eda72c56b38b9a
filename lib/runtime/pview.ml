module Graph = Repro_graph.Graph

type t = {
  n : int;
  words : int;
  row : int array;
  col : int array;
  wgt : int array;
  bank : int array array;
  move : int array;
  mutable focus : int;
}

let of_graph g ~bank =
  let words = Array.length bank in
  if words = 0 then invalid_arg "Pview.of_graph: empty bank";
  let n = Graph.n g in
  Array.iter
    (fun lane ->
      if Array.length lane <> n then invalid_arg "Pview.of_graph: lane length <> n")
    bank;
  {
    n;
    words;
    row = Graph.csr_row g;
    col = Graph.csr_col g;
    wgt = Graph.csr_wgt g;
    bank;
    move = Array.make words 0;
    focus = 0;
  }
