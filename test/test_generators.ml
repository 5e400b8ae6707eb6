open Graphkit

let test_circulant_shape () =
  let g = Generators.circulant ~n:6 ~k:2 in
  Alcotest.(check int) "vertices" 6 (Digraph.n_vertices g);
  Alcotest.(check int) "edges" 12 (Digraph.n_edges g);
  Alcotest.(check bool) "wraparound edge" true (Digraph.mem_edge 5 1 g)

let test_complete_shape () =
  let g = Generators.complete ~n:4 in
  Alcotest.(check int) "edges" 12 (Digraph.n_edges g)

let test_random_k_osr_is_k_osr () =
  List.iter
    (fun (seed, sink_size, non_sink, k) ->
      let g = Generators.random_k_osr ~seed ~sink_size ~non_sink ~k () in
      match Properties.check_k_osr g k with
      | Ok sink ->
          Alcotest.check
            (Alcotest.testable Pid.Set.pp Pid.Set.equal)
            "sink is the first sink_size ids"
            (Pid.Set.of_range 0 (sink_size - 1))
            sink
      | Error e ->
          Alcotest.failf "seed=%d: not %d-OSR: %a" seed k
            Properties.pp_osr_failure e)
    [ (1, 4, 3, 1); (2, 5, 4, 2); (3, 7, 5, 3); (4, 9, 6, 3); (5, 6, 0, 2) ]

let test_random_byzantine_safe_solvable () =
  List.iter
    (fun seed ->
      let f = 1 in
      let g, sink =
        Generators.random_byzantine_safe ~seed ~f ~sink_size:6 ~non_sink:4 ()
      in
      (* Any faulty set of size f, inside or outside the sink. *)
      let faulty_in = Generators.random_faulty_set ~seed ~f ~within:sink g in
      let outside = Pid.Set.diff (Digraph.vertices g) sink in
      let faulty_out =
        Generators.random_faulty_set ~seed ~f ~within:outside g
      in
      List.iter
        (fun faulty ->
          Alcotest.(check bool)
            (Format.asprintf "seed=%d faulty=%a" seed Pid.Set.pp faulty)
            true
            (Properties.solvable g ~f ~faulty))
        [ faulty_in; faulty_out ])
    [ 10; 11; 12; 13 ]

let test_layered_k_osr () =
  List.iter
    (fun (seed, k) ->
      let g =
        Generators.layered_k_osr ~seed ~sink_size:(k + 3) ~layers:2
          ~layer_width:(k + 1) ~k ()
      in
      Alcotest.(check bool)
        (Printf.sprintf "layered seed=%d k=%d" seed k)
        true
        (Properties.is_k_osr g k))
    [ (1, 1); (2, 2); (3, 3) ]

let test_determinism () =
  let g1 = Generators.random_k_osr ~seed:42 ~sink_size:5 ~non_sink:4 ~k:2 () in
  let g2 = Generators.random_k_osr ~seed:42 ~sink_size:5 ~non_sink:4 ~k:2 () in
  Alcotest.(check bool) "same seed, same graph" true (Digraph.equal g1 g2);
  let g3 = Generators.random_k_osr ~seed:43 ~sink_size:5 ~non_sink:4 ~k:2 () in
  Alcotest.(check bool) "different seed, different graph" false
    (Digraph.equal g1 g3)

let test_invalid_args () =
  Alcotest.check_raises "sink too small"
    (Invalid_argument "random_k_osr: sink_size must exceed k") (fun () ->
      ignore (Generators.random_k_osr ~seed:0 ~sink_size:2 ~non_sink:1 ~k:2 ()));
  Alcotest.check_raises "byz-safe sink too small"
    (Invalid_argument "random_byzantine_safe: sink_size must be at least 3f + 2")
    (fun () ->
      ignore
        (Generators.random_byzantine_safe ~seed:0 ~f:1 ~sink_size:4
           ~non_sink:1 ()));
  Alcotest.check_raises "family without a sink"
    (Invalid_argument "fig2_family: sink_size < 1") (fun () ->
      ignore (Generators.fig2_family ~sink_size:0 ~non_sink:2));
  Alcotest.check_raises "negative non-sink count"
    (Invalid_argument "random_k_osr: non_sink < 0")
    (fun () ->
      ignore
        (Generators.random_k_osr ~seed:0 ~sink_size:4 ~non_sink:(-3) ~k:3 ()));
  Alcotest.check_raises "family with a negative outer clique"
    (Invalid_argument "fig2_family: non_sink < 0") (fun () ->
      ignore (Generators.fig2_family ~sink_size:4 ~non_sink:(-3)))

let prop_random_k_osr_always_valid =
  QCheck.Test.make ~count:40 ~name:"random_k_osr is always k-OSR"
    QCheck.(triple (int_bound 1000) (int_range 1 3) (int_bound 5))
    (fun (seed, k, non_sink) ->
      let sink_size = k + 2 + (seed mod 3) in
      let g = Generators.random_k_osr ~seed ~sink_size ~non_sink ~k () in
      Properties.is_k_osr g k)

let prop_faulty_set_size =
  QCheck.Test.make ~count:50 ~name:"random_faulty_set has the right size"
    QCheck.(pair (int_bound 1000) (int_range 0 4))
    (fun (seed, f) ->
      let g = Generators.complete ~n:6 in
      Pid.Set.cardinal (Generators.random_faulty_set ~seed ~f g) = min f 6)

let suites =
  [
    ( "generators",
      [
        Alcotest.test_case "circulant shape" `Quick test_circulant_shape;
        Alcotest.test_case "complete shape" `Quick test_complete_shape;
        Alcotest.test_case "random_k_osr validated exactly" `Quick
          test_random_k_osr_is_k_osr;
        Alcotest.test_case "random_byzantine_safe solvable" `Quick
          test_random_byzantine_safe_solvable;
        Alcotest.test_case "layered_k_osr validated" `Quick test_layered_k_osr;
        Alcotest.test_case "determinism in the seed" `Quick test_determinism;
        Alcotest.test_case "invalid arguments rejected" `Quick
          test_invalid_args;
        QCheck_alcotest.to_alcotest prop_random_k_osr_always_valid;
        QCheck_alcotest.to_alcotest prop_faulty_set_size;
      ] );
  ]
