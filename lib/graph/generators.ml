let circulant ~n ~k =
  let g = ref Digraph.empty in
  for i = 0 to n - 1 do
    g := Digraph.add_vertex i !g;
    for d = 1 to k do
      g := Digraph.add_edge i ((i + d) mod n) !g
    done
  done;
  !g

let complete ~n =
  let g = ref Digraph.empty in
  for i = 0 to n - 1 do
    g := Digraph.add_vertex i !g;
    for j = 0 to n - 1 do
      if i <> j then g := Digraph.add_edge i j !g
    done
  done;
  !g

(* Draw [k] distinct elements of [pool] (an array) uniformly without
   replacement, by partial Fisher-Yates on a scratch copy. *)
let sample_distinct rng k pool =
  let a = Array.copy pool in
  let n = Array.length a in
  assert (k <= n);
  for i = 0 to k - 1 do
    let j = i + Random.State.int rng (n - i) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  Array.to_list (Array.sub a 0 k)

(* The probability of each extra non-sink edge; sink chords are drawn
   at half of it. *)
let extra_edge_prob = 0.3

let random_k_osr ~seed ~sink_size ~non_sink ~k () =
  if k < 1 then invalid_arg "random_k_osr: k must be positive";
  if sink_size <= k then invalid_arg "random_k_osr: sink_size must exceed k";
  if non_sink < 0 then invalid_arg "random_k_osr: non_sink < 0";
  let rng = Random.State.make [| seed; 0x6f5; sink_size; non_sink; k |] in
  let g = ref (circulant ~n:sink_size ~k) in
  (* Densify the sink with random chords; chords can only increase
     connectivity. *)
  for i = 0 to sink_size - 1 do
    for j = 0 to sink_size - 1 do
      if i <> j && Random.State.float rng 1.0 < extra_edge_prob /. 2.0 then
        g := Digraph.add_edge i j !g
    done
  done;
  let sink_pool = Array.init sink_size (fun i -> i) in
  for v = sink_size to sink_size + non_sink - 1 do
    List.iter
      (fun s -> g := Digraph.add_edge v s !g)
      (sample_distinct rng k sink_pool);
    (* Extra knowledge of earlier non-sink vertices. *)
    for w = sink_size to v - 1 do
      if Random.State.float rng 1.0 < extra_edge_prob then
        g := Digraph.add_edge v w !g
    done
  done;
  !g

let random_byzantine_safe ~seed ~f ~sink_size ~non_sink () =
  let k = (2 * f) + 1 in
  if sink_size < (3 * f) + 2 then
    invalid_arg "random_byzantine_safe: sink_size must be at least 3f + 2";
  let g = random_k_osr ~seed ~sink_size ~non_sink ~k () in
  (g, Pid.Set.of_range 0 (sink_size - 1))

let random_faulty_set ~seed ~f ?within g =
  let pool =
    match within with
    | Some s -> s
    | None -> Digraph.vertices g
  in
  let rng = Random.State.make [| seed; 0xfa17 |] in
  let arr = Array.of_list (Pid.Set.elements pool) in
  let f = min f (Array.length arr) in
  Pid.Set.of_list (sample_distinct rng f arr)

let fig2_family ~sink_size ~non_sink =
  if sink_size < 1 then invalid_arg "fig2_family: sink_size < 1";
  if non_sink < 0 then invalid_arg "fig2_family: non_sink < 0";
  let g = ref (complete ~n:sink_size) in
  for i = 0 to non_sink - 1 do
    let v = sink_size + i in
    for j = 0 to non_sink - 1 do
      if i <> j then g := Digraph.add_edge v (sink_size + j) !g
    done;
    g := Digraph.add_edge v (i mod sink_size) !g
  done;
  !g

let layered_k_osr ~seed ~sink_size ~layers ~layer_width ~k () =
  if layer_width < k then invalid_arg "layered_k_osr: layer_width < k";
  if sink_size <= k then invalid_arg "layered_k_osr: sink_size <= k";
  let attempt seed =
    let rng = Random.State.make [| seed; 0x1a7e |] in
    let g = ref (circulant ~n:sink_size ~k) in
    (* Layer 0 is the sink itself; layer l >= 1 holds non-sink
       vertices that point at k distinct members of layer l-1. *)
    let layer_vertices l =
      if l = 0 then Array.init sink_size (fun i -> i)
      else
        Array.init layer_width (fun i ->
            sink_size + ((l - 1) * layer_width) + i)
    in
    for l = 1 to layers do
      let below = layer_vertices (l - 1) in
      Array.iter
        (fun v ->
          List.iter
            (fun w -> g := Digraph.add_edge v w !g)
            (sample_distinct rng k below))
        (layer_vertices l)
    done;
    !g
  in
  let rec search seed budget =
    let g = attempt seed in
    if budget = 0 || Properties.is_k_osr g k then g
    else search (seed + 1) (budget - 1)
  in
  search seed 64
