(* Equivalence suites for the compiled CSR kernel: every graph
   analysis must return exactly what its seed implementation in
   [Oracle] returns — ordering included, since EXPERIMENTS.md
   reproducibility rides on it — and a graph naming a negative pid
   must be refused, by the kernel and by the parser in front of it. *)

open Graphkit

let comps_eq = List.equal Pid.Set.equal

let comps_pp ppf cs =
  Format.fprintf ppf "[%a]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_space Pid.Set.pp)
    cs

let comps = Alcotest.testable comps_pp comps_eq

let arb_graph =
  QCheck.make
    ~print:(fun g -> Format.asprintf "%a" Digraph.pp g)
    QCheck.Gen.(
      let* n = int_range 1 9 in
      let* edges =
        list_size (int_bound 25) (pair (int_bound (n - 1)) (int_bound (n - 1)))
      in
      return (Digraph.of_edges edges))

(* Edge lists rather than graphs, so the same topology can be built
   twice: once on pids [0..] and once shifted negative. *)
let arb_edges =
  QCheck.make
    ~print:(fun es ->
      String.concat ", "
        (List.map (fun (i, j) -> Printf.sprintf "%d->%d" i j) es))
    QCheck.Gen.(
      let* n = int_range 1 8 in
      list_size (int_bound 20) (pair (int_bound (n - 1)) (int_bound (n - 1))))

(* ---- compiled representation ----------------------------------------- *)

let test_compile_structure () =
  let g = Digraph.of_edges [ (5, 1); (1, 3); (3, 5); (3, 1); (7, 3) ] in
  let h = Csr.of_graph g in
  Alcotest.(check int) "n_vertices" 4 (Csr.n_vertices h);
  Alcotest.(check (list int))
    "pids ascending"
    [ 1; 3; 5; 7 ]
    (List.init 4 (Csr.pid_of h));
  List.iteri
    (fun k p ->
      Alcotest.(check (option int))
        (Printf.sprintf "index_of %d" p)
        (Some k) (Csr.index_of h p))
    [ 1; 3; 5; 7 ];
  Alcotest.(check (option int)) "index_of absent" None (Csr.index_of h 2);
  Alcotest.(check (option int)) "index_of negative" None (Csr.index_of h (-1));
  let row off arr v =
    List.init (off.(v + 1) - off.(v)) (fun i -> Csr.pid_of h arr.(off.(v) + i))
  in
  for v = 0 to 3 do
    let p = Csr.pid_of h v in
    Alcotest.(check (list int))
      (Printf.sprintf "succ row of %d" p)
      (Pid.Set.elements (Digraph.succs g p))
      (row (Csr.succ_off h) (Csr.succ_arr h) v);
    Alcotest.(check (list int))
      (Printf.sprintf "pred row of %d" p)
      (Pid.Set.elements (Digraph.preds g p))
      (row (Csr.pred_off h) (Csr.pred_arr h) v)
  done

let test_empty_and_singleton () =
  let h = Csr.of_graph Digraph.empty in
  Alcotest.(check int) "empty has 0 vertices" 0 (Csr.n_vertices h);
  Alcotest.(check int) "empty has 0 components" 0 (Csr.scc_count h);
  Alcotest.(check (list int)) "empty has no sinks" [] (Csr.dag_sinks h);
  let h = Csr.of_graph (Digraph.add_vertex 3 Digraph.empty) in
  Alcotest.(check int) "singleton component count" 1 (Csr.scc_count h);
  Alcotest.check comps "singleton component"
    [ Pid.Set.singleton 3 ]
    (Csr.scc_components h);
  Alcotest.(check (list int)) "singleton is the sink" [ 0 ] (Csr.dag_sinks h)

(* The name is a stable test id. Every kernel entry point refuses a
   graph naming a negative pid. *)
let test_negative_pid_fallback () =
  let g = Digraph.of_edges [ (-1, 2); (2, -1); (2, 3) ] in
  let refused what f =
    Alcotest.check_raises what
      (Invalid_argument "Csr.of_graph: negative process id") (fun () ->
        ignore (f ()))
  in
  refused "of_graph" (fun () -> Csr.of_graph g);
  refused "components" (fun () -> Scc.components g);
  refused "sink components" (fun () -> Condensation.sink_components g);
  refused "reachable" (fun () -> Traversal.reachable g (-1));
  refused "menger" (fun () -> Connectivity.node_disjoint_paths g (-1) 3)

(* Every malformed row set is refused by name, before any array is
   read back. *)
let test_of_rows_refusals () =
  let refused what msg rows =
    Alcotest.check_raises what (Invalid_argument ("Csr.of_rows: " ^ msg))
      (fun () -> ignore (Csr.of_rows rows))
  in
  refused "negative vertex" "negative process id" [ (-1, []); (2, [ -1 ]) ];
  refused "rows descend" "rows not strictly ascending" [ (2, []); (1, []) ];
  refused "repeated row" "rows not strictly ascending" [ (1, []); (1, []) ];
  refused "row descends" "rows not strictly ascending"
    [ (1, [ 2; 1 ]); (2, []) ];
  refused "repeated successor" "rows not strictly ascending"
    [ (1, [ 2; 2 ]); (2, []) ];
  refused "successor past the last vertex" "successor is not a vertex"
    [ (1, [ 5 ]); (2, []) ];
  refused "successor between vertices" "successor is not a vertex"
    [ (1, [ 3 ]); (5, []) ];
  refused "negative successor" "successor is not a vertex" [ (1, [ -2 ]) ]

let test_fig2_exact () =
  let g = Generators.fig2_family ~sink_size:4 ~non_sink:3 in
  Alcotest.check comps "fig2 components, order included"
    (Oracle.Scc.components g) (Scc.components g);
  Alcotest.check comps "fig2 sink components"
    (Oracle.Condensation.sink_components g)
    (Condensation.sink_components g);
  Alcotest.(check bool) "fig2 is 3-OSR both ways" true
    (Properties.is_k_osr g 3 = Oracle.Properties.is_k_osr g 3)

let test_big_circulant_smoke () =
  let h = Csr.of_graph (Generators.circulant ~n:50_000 ~k:3) in
  Alcotest.(check int) "one component, no stack overflow" 1 (Csr.scc_count h);
  Alcotest.(check (list int)) "one sink" [ 0 ] (Csr.dag_sinks h)

(* ---- qcheck equivalence ----------------------------------------------- *)

let prop_scc_exact =
  QCheck.Test.make ~count:300 ~name:"csr SCC = seed SCC, order included"
    arb_graph (fun g ->
      comps_eq (Scc.components g) (Oracle.Scc.components g))

let prop_condensation_exact =
  QCheck.Test.make ~count:300 ~name:"csr condensation = seed condensation"
    arb_graph (fun g ->
      let d = Condensation.make g and s = Oracle.Condensation.make g in
      let dc = Condensation.components d
      and sc = Oracle.Condensation.components s in
      Array.length dc = Array.length sc
      && Array.for_all2 Pid.Set.equal dc sc
      && List.for_all
           (fun v ->
             Condensation.component_of d v
             = Oracle.Condensation.component_of s v)
           (Pid.Set.elements (Digraph.vertices g))
      && List.init (Array.length dc) Fun.id
         |> List.for_all (fun k ->
                List.equal Int.equal
                  (Condensation.dag_succs d k)
                  (Oracle.Condensation.dag_succs s k))
      && List.equal Int.equal (Condensation.sinks d)
           (Oracle.Condensation.sinks s))

let prop_sink_components_exact =
  QCheck.Test.make ~count:300 ~name:"csr sink components = seed" arb_graph
    (fun g ->
      comps_eq
        (Condensation.sink_components g)
        (Oracle.Condensation.sink_components g))

let prop_reachability_equal =
  QCheck.Test.make ~count:200 ~name:"csr reachability = seed traversal"
    arb_graph (fun g ->
      List.for_all
        (fun v ->
          Pid.Set.equal (Traversal.reachable g v)
            (Oracle.Traversal.reachable g v)
          && comps_eq (Traversal.bfs_layers g v)
               (Oracle.Traversal.bfs_layers g v))
        (Pid.Set.elements (Digraph.vertices g))
      && Bool.equal
           (Traversal.is_connected_undirected g)
           (Oracle.Traversal.is_connected_undirected g))

let prop_menger_equal =
  QCheck.Test.make ~count:100 ~name:"csr menger = seed menger" arb_graph
    (fun g ->
      let vs = Pid.Set.elements (Digraph.vertices g) in
      List.for_all
        (fun i ->
          List.for_all
            (fun j ->
              Connectivity.node_disjoint_paths g i j
              = Oracle.Connectivity.node_disjoint_paths g i j)
            vs)
        vs)

let prop_masked_menger_equal =
  QCheck.Test.make ~count:100
    ~name:"masked disjoint_paths_within = subgraph baseline" arb_graph
    (fun g ->
      let vs = Pid.Set.elements (Digraph.vertices g) in
      let allowed =
        Pid.Set.of_list (List.filteri (fun i _ -> i mod 2 = 0) vs)
      in
      List.for_all
        (fun i ->
          List.for_all
            (fun j ->
              let keep = Pid.Set.add i (Pid.Set.add j allowed) in
              Connectivity.disjoint_paths_within g ~allowed i j
              = Oracle.Connectivity.node_disjoint_paths
                  (Digraph.subgraph keep g) i j)
            vs)
        vs)

let prop_kosr_equal =
  QCheck.Test.make ~count:100 ~name:"csr is_k_osr = seed is_k_osr" arb_graph
    (fun g ->
      List.for_all
        (fun k ->
          Bool.equal (Properties.is_k_osr g k) (Oracle.Properties.is_k_osr g k))
        [ 1; 2; 3 ])

(* The name is a stable test id. A graph's text form round-trips, and
   the same topology shifted below zero is refused on its first line,
   the one naming the smallest pid. Vertices are below 8, so a shift of
   -8 makes every one of them negative. *)
let prop_negative_shift_equal =
  QCheck.Test.make ~count:200 ~name:"negative-pid fallback matches CSR path"
    arb_edges (fun es ->
      let shift = -8 in
      let g0 = Digraph.of_edges es in
      let gn =
        Digraph.of_edges (List.map (fun (i, j) -> (i + shift, j + shift)) es)
      in
      let refused_on_line_1 =
        match Parse.of_string (Parse.to_string gn) with
        | Error e -> String.starts_with ~prefix:"line 1: " e
        | Ok _ -> Digraph.n_vertices gn = 0
      in
      (match Parse.of_string (Parse.to_string g0) with
      | Ok g -> Digraph.equal g g0
      | Error _ -> false)
      && refused_on_line_1)

(* Sparse pids, isolated vertices included: the rows are built from
   the edge list directly, not read back from a [Digraph.t], so the
   two constructors share nothing but the compiler. *)
let arb_rows_graph =
  QCheck.make
    ~print:(fun (es, isolated) ->
      Printf.sprintf "edges %s; isolated %s"
        (String.concat ", "
           (List.map (fun (i, j) -> Printf.sprintf "%d->%d" i j) es))
        (String.concat ", " (List.map string_of_int isolated)))
    QCheck.Gen.(
      let* n = int_range 1 9 in
      let pid = map (fun k -> (3 * k) + 1) (int_bound (n - 1)) in
      let* es = list_size (int_bound 25) (pair pid pid) in
      let* isolated = list_size (int_bound 3) pid in
      return (es, isolated))

let prop_of_rows_exact =
  QCheck.Test.make ~count:300
    ~name:"csr of_rows = of_graph, arrays and SCC order" arb_rows_graph
    (fun (es, isolated) ->
      let g =
        List.fold_left (fun g v -> Digraph.add_vertex v g)
          (Digraph.of_edges es) isolated
      in
      let vertices =
        List.sort_uniq Int.compare
          (isolated @ List.concat_map (fun (i, j) -> [ i; j ]) es)
      in
      let row v =
        ( v,
          List.sort_uniq Int.compare
            (List.filter_map (fun (i, j) -> if i = v then Some j else None) es)
        )
      in
      let a = Csr.of_rows (List.map row vertices) and b = Csr.of_graph g in
      let same f =
        List.equal Int.equal (Array.to_list (f a)) (Array.to_list (f b))
      in
      Csr.n_vertices a = Csr.n_vertices b
      && List.equal Int.equal vertices
           (List.init (Csr.n_vertices a) (Csr.pid_of a))
      && same Csr.succ_off && same Csr.succ_arr && same Csr.pred_off
      && same Csr.pred_arr
      && comps_eq (Csr.scc_components a) (Csr.scc_components b)
      && comps_eq (Csr.scc_components a) (Oracle.Scc.components g))

let arb_network =
  QCheck.make
    ~print:(fun (n, es) ->
      Printf.sprintf "n=%d; %s" n
        (String.concat ", "
           (List.map (fun (u, v, c) -> Printf.sprintf "%d->%d/%d" u v c) es)))
    QCheck.Gen.(
      let* n = int_range 2 8 in
      let* es =
        list_size (int_bound 20)
          (triple (int_bound (n - 1)) (int_bound (n - 1)) (int_bound 5))
      in
      return (n, es))

let prop_flow_equal =
  QCheck.Test.make ~count:300 ~name:"array dinic = seed dinic (flow and cut)"
    arb_network (fun (n, es) ->
      let mk add create =
        let net = create ~n ~source:0 ~sink:(n - 1) in
        List.iter (fun (u, v, c) -> add net u v c) es;
        net
      in
      let a = mk Flow.add_edge Flow.create in
      let b = mk Oracle.Flow.add_edge Oracle.Flow.create in
      Flow.max_flow a = Oracle.Flow.max_flow b
      && Array.to_list (Flow.min_cut_side a)
         = Array.to_list (Oracle.Flow.min_cut_side b))

let suites =
  [
    ( "csr",
      [
        Alcotest.test_case "compiled structure" `Quick test_compile_structure;
        Alcotest.test_case "empty and singleton" `Quick
          test_empty_and_singleton;
        Alcotest.test_case "negative-pid fallback" `Quick
          test_negative_pid_fallback;
        Alcotest.test_case "of_rows refusals" `Quick test_of_rows_refusals;
        Alcotest.test_case "fig2 exact equivalence" `Quick test_fig2_exact;
        Alcotest.test_case "50k circulant smoke (no overflow)" `Slow
          test_big_circulant_smoke;
        QCheck_alcotest.to_alcotest prop_scc_exact;
        QCheck_alcotest.to_alcotest prop_of_rows_exact;
        QCheck_alcotest.to_alcotest prop_condensation_exact;
        QCheck_alcotest.to_alcotest prop_sink_components_exact;
        QCheck_alcotest.to_alcotest prop_reachability_equal;
        QCheck_alcotest.to_alcotest prop_menger_equal;
        QCheck_alcotest.to_alcotest prop_masked_menger_equal;
        QCheck_alcotest.to_alcotest prop_kosr_equal;
        QCheck_alcotest.to_alcotest prop_negative_shift_equal;
        QCheck_alcotest.to_alcotest prop_flow_equal;
      ] );
  ]
