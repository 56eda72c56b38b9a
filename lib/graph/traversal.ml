(* One BFS from every source at once, over the CSR arrays with an
   int-array queue: hop distances to the nearest source. [reach x u]
   runs when the scan of [u] first reaches [x]. *)
let bfs g sources reach =
  let n = Graph.n g in
  let row = Graph.csr_row g and col = Graph.csr_col g in
  let dist = Array.make n max_int and queue = Array.make n 0 in
  let head = ref 0 and tail = ref 0 in
  let visit x d =
    if dist.(x) = max_int then begin
      dist.(x) <- d;
      queue.(!tail) <- x;
      incr tail;
      true
    end
    else false
  in
  List.iter (fun s -> ignore (visit s 0)) sources;
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    for i = row.(u) to row.(u + 1) - 1 do
      if visit col.(i) (dist.(u) + 1) then reach col.(i) u
    done
  done;
  dist

let hop_distances g sources = bfs g sources (fun _ _ -> ())
let bfs_distances g ~src = hop_distances g [ src ]

let bfs_tree g ~src =
  let parent = Array.make (Graph.n g) (-2) in
  parent.(src) <- -1;
  ignore (bfs g [ src ] (fun x u -> parent.(x) <- u));
  parent

let dfs_order g ~src =
  let n = Graph.n g in
  let pre = Array.make n (-1) and post = Array.make n (-1) in
  let pre_clock = ref 0 and post_clock = ref 0 in
  (* Explicit stack to avoid overflow on long paths. Each frame is a node
     plus the index of the next neighbor to explore. *)
  let stack = Stack.create () in
  pre.(src) <- !pre_clock;
  incr pre_clock;
  Stack.push (src, ref 0) stack;
  while not (Stack.is_empty stack) do
    let u, next = Stack.top stack in
    let nbrs = Graph.neighbors g u in
    if !next >= Array.length nbrs then begin
      ignore (Stack.pop stack);
      post.(u) <- !post_clock;
      incr post_clock
    end
    else begin
      let v, _w = nbrs.(!next) in
      incr next;
      if pre.(v) = -1 then begin
        pre.(v) <- !pre_clock;
        incr pre_clock;
        Stack.push (v, ref 0) stack
      end
    end
  done;
  (pre, post)

let components g =
  let n = Graph.n g in
  let comp = Array.make n (-1) in
  let count = ref 0 in
  for v = 0 to n - 1 do
    if comp.(v) = -1 then begin
      let q = Queue.create () in
      comp.(v) <- !count;
      Queue.add v q;
      while not (Queue.is_empty q) do
        let u = Queue.pop q in
        Array.iter
          (fun (x, _) ->
            if comp.(x) = -1 then begin
              comp.(x) <- !count;
              Queue.add x q
            end)
          (Graph.neighbors g u)
      done;
      incr count
    end
  done;
  (!count, comp)

(* One BFS from node 0 over the CSR arrays with an int-array queue: the
   churn path asks this once per delete or leave at every n. *)
let is_connected g =
  let n = Graph.n g in
  let row = Graph.csr_row g and col = Graph.csr_col g in
  let seen = Bytes.make n '\000' and queue = Array.make n 0 in
  Bytes.set seen 0 '\001';
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    for i = row.(u) to row.(u + 1) - 1 do
      let x = col.(i) in
      if Bytes.get seen x = '\000' then begin
        Bytes.set seen x '\001';
        queue.(!tail) <- x;
        incr tail
      end
    done
  done;
  !tail = n

let eccentricity g v =
  let dist = bfs_distances g ~src:v in
  Array.fold_left
    (fun acc d ->
      if d = max_int then invalid_arg "Traversal.eccentricity: disconnected"
      else max acc d)
    0 dist

let diameter g =
  let best = ref 0 in
  for v = 0 to Graph.n g - 1 do
    best := max !best (eccentricity g v)
  done;
  !best
