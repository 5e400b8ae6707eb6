(* Node splitting: vertex v becomes v_in -> v_out with capacity 1
   (unbounded for the two endpoints), and each graph edge (u, v) becomes
   u_out -> v_in with capacity 1. Edge capacity 1 is exact here: two
   internally disjoint paths can never share an edge, because sharing an
   edge implies sharing one of its endpoints as an internal vertex.

   The network is built straight from the compiled CSR rows (dense
   index k maps to nodes 2k / 2k+1) — for the masked variant used by
   f-reachability a bool mask replaces an induced subgraph. Max-flow
   values are unique, so every count agrees with the seed construction
   kept as the test oracle in [test/oracle]. *)

let big = 1_000_000

(* Menger on the compiled handle, restricted to dense vertices with
   [mask.(v)] set (the endpoints [s] and [t] must be masked). *)
let menger_masked h mask s t =
  let n = Csr.n_vertices h in
  let off = Csr.succ_off h and arr = Csr.succ_arr h in
  let net = Flow.create ~n:(2 * n) ~source:(2 * s) ~sink:((2 * t) + 1) in
  for v = 0 to n - 1 do
    if mask.(v) then
      let cap = if v = s || v = t then big else 1 in
      Flow.add_edge net (2 * v) ((2 * v) + 1) cap
  done;
  for u = 0 to n - 1 do
    if mask.(u) then
      for i = off.(u) to off.(u + 1) - 1 do
        let v = arr.(i) in
        if mask.(v) then Flow.add_edge net ((2 * u) + 1) (2 * v) 1
      done
  done;
  Flow.max_flow net

let node_disjoint_paths_csr h src dst =
  if Pid.equal src dst then 0
  else
    match (Csr.index_of h src, Csr.index_of h dst) with
    | Some s, Some t -> menger_masked h (Array.make (Csr.n_vertices h) true) s t
    | _ -> 0

let node_disjoint_paths g src dst =
  node_disjoint_paths_csr (Csr.of_graph g) src dst

(* The least count over ordered pairs of distinct vertices ([max_int]
   below two vertices), on one handle; the scan stops at the first
   pair under [floor]. *)
let least_paths g ~floor =
  let h = Csr.of_graph g in
  let n = Csr.n_vertices h in
  let full = Array.make n true in
  let least = ref max_int in
  for s = 0 to n - 1 do
    for t = 0 to n - 1 do
      if s <> t && !least >= floor then
        least := min !least (menger_masked h full s t)
    done
  done;
  !least

let is_k_strongly_connected g k = least_paths g ~floor:k >= k
let vertex_connectivity g = least_paths g ~floor:min_int

let disjoint_paths_within g ~allowed src dst =
  let h = Csr.of_graph g in
  if Pid.equal src dst then 0
  else
    match (Csr.index_of h src, Csr.index_of h dst) with
    | Some s, Some t ->
        let mask = Array.make (Csr.n_vertices h) false in
        Pid.Set.iter
          (fun v ->
            match Csr.index_of h v with Some k -> mask.(k) <- true | None -> ())
          allowed;
        mask.(s) <- true;
        mask.(t) <- true;
        menger_masked h mask s t
    | _ -> 0

let f_reachable g ~correct f src dst =
  Pid.Set.mem src correct && Pid.Set.mem dst correct
  && disjoint_paths_within g ~allowed:correct src dst >= f + 1
