open Graphkit

let set = Pid.Set.of_list
let pid_set = Alcotest.testable Pid.Set.pp Pid.Set.equal

let small = Digraph.of_edges [ (1, 2); (2, 3); (3, 1); (3, 4) ]

let test_basics () =
  Alcotest.(check int) "vertices" 4 (Digraph.n_vertices small);
  Alcotest.(check int) "edges" 4 (Digraph.n_edges small);
  Alcotest.(check bool) "mem_edge" true (Digraph.mem_edge 3 4 small);
  Alcotest.(check bool) "no reverse edge" false (Digraph.mem_edge 4 3 small);
  Alcotest.check pid_set "succs of 3" (set [ 1; 4 ]) (Digraph.succs small 3);
  Alcotest.check pid_set "preds of 1" (set [ 3 ]) (Digraph.preds small 1);
  Alcotest.check pid_set "succs of absent vertex" Pid.Set.empty
    (Digraph.succs small 99)

let test_remove_vertex () =
  let g = Digraph.remove_vertex 3 small in
  Alcotest.(check int) "vertices after removal" 3 (Digraph.n_vertices g);
  Alcotest.(check int) "edges after removal" 1 (Digraph.n_edges g);
  Alcotest.check pid_set "2 lost its successor" Pid.Set.empty
    (Digraph.succs g 2)

let test_subgraph () =
  let g = Digraph.subgraph (set [ 1; 2; 3 ]) small in
  Alcotest.(check int) "induced edges" 3 (Digraph.n_edges g);
  Alcotest.(check bool) "vertex 4 gone" false (Digraph.mem_vertex 4 g)

let test_isolated_vertex () =
  let g = Digraph.add_vertex 9 Digraph.empty in
  Alcotest.(check int) "one vertex" 1 (Digraph.n_vertices g);
  Alcotest.(check int) "no edges" 0 (Digraph.n_edges g)

let test_undirected () =
  let u = Digraph.undirected small in
  Alcotest.(check bool) "reverse edge present" true (Digraph.mem_edge 4 3 u);
  Alcotest.(check int) "edge count doubles (no 2-cycles here)" 8
    (Digraph.n_edges u)

let random_graph_gen =
  QCheck.Gen.(
    let* n = int_range 1 8 in
    let* edges =
      list_size (int_bound 20) (pair (int_bound (n - 1)) (int_bound (n - 1)))
    in
    return (Digraph.of_edges edges))

let arb_graph = QCheck.make random_graph_gen

let prop_transpose_involutive =
  QCheck.Test.make ~count:200 ~name:"transpose involutive" arb_graph (fun g ->
      Digraph.equal (Digraph.transpose (Digraph.transpose g)) g)

let prop_transpose_preserves_edges =
  QCheck.Test.make ~count:200 ~name:"transpose preserves edge count" arb_graph
    (fun g -> Digraph.n_edges (Digraph.transpose g) = Digraph.n_edges g)

let prop_preds_succs_agree =
  QCheck.Test.make ~count:200 ~name:"preds and succs agree" arb_graph (fun g ->
      Pid.Set.for_all
        (fun i ->
          Pid.Set.for_all (fun j -> Pid.Set.mem i (Digraph.preds g j))
            (Digraph.succs g i))
        (Digraph.vertices g))

(* Adjacency lists with repeated sources, duplicate targets, self-loops
   and targets (up to [n + 2]) that never appear as a source. *)
let adjacency_gen =
  QCheck.Gen.(
    let* n = int_range 1 8 in
    list_size (int_bound 10)
      (pair (int_bound (n - 1)) (list_size (int_bound 6) (int_bound (n + 2)))))

let arb_adjacency =
  QCheck.make ~print:QCheck.Print.(list (pair int (list int))) adjacency_gen

let edge_by_edge adj =
  List.fold_left
    (fun g (i, js) ->
      List.fold_left
        (fun g j -> Digraph.add_edge i j g)
        (Digraph.add_vertex i g) js)
    Digraph.empty adj

let prop_of_adjacency_edge_by_edge =
  (* [equal] compares successor rows; the transposes compare the
     predecessor rows. *)
  QCheck.Test.make ~count:300 ~name:"of_adjacency = edge-by-edge build"
    arb_adjacency (fun adj ->
      let bulk = Digraph.of_adjacency adj and reference = edge_by_edge adj in
      Digraph.equal bulk reference
      && Digraph.equal (Digraph.transpose bulk) (Digraph.transpose reference))

let suites =
  [
    ( "digraph",
      [
        Alcotest.test_case "basics" `Quick test_basics;
        Alcotest.test_case "remove_vertex" `Quick test_remove_vertex;
        Alcotest.test_case "subgraph" `Quick test_subgraph;
        Alcotest.test_case "isolated vertex" `Quick test_isolated_vertex;
        Alcotest.test_case "undirected" `Quick test_undirected;
        QCheck_alcotest.to_alcotest prop_transpose_involutive;
        QCheck_alcotest.to_alcotest prop_transpose_preserves_edges;
        QCheck_alcotest.to_alcotest prop_preds_succs_agree;
        QCheck_alcotest.to_alcotest prop_of_adjacency_edge_by_edge;
      ] );
  ]
