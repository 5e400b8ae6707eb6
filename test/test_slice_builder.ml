open Graphkit
open Cup

let set = Pid.Set.of_list

let test_sink_threshold_formula () =
  (* ceil((|V| + f + 1) / 2) *)
  Alcotest.(check int) "V=4 f=1" 3 (Slice_builder.sink_threshold ~sink_size:4 ~f:1);
  Alcotest.(check int) "V=5 f=1" 4 (Slice_builder.sink_threshold ~sink_size:5 ~f:1);
  Alcotest.(check int) "V=7 f=2" 5 (Slice_builder.sink_threshold ~sink_size:7 ~f:2);
  Alcotest.(check int) "V=3 f=0" 2 (Slice_builder.sink_threshold ~sink_size:3 ~f:0)

let test_build_slices_shapes () =
  let v = set [ 1; 2; 3; 4 ] in
  let sink_slices =
    Slice_builder.build_slices ~f:1 { Sink_oracle.in_sink = true; view = v }
  in
  (match sink_slices with
  | Fbqs.Slice.Threshold { members; threshold } ->
      Alcotest.(check bool) "members = V" true (Pid.Set.equal members v);
      Alcotest.(check int) "sink threshold" 3 threshold
  | Fbqs.Slice.Explicit _ -> Alcotest.fail "expected threshold slices");
  let nonsink_slices =
    Slice_builder.build_slices ~f:1 { Sink_oracle.in_sink = false; view = v }
  in
  match nonsink_slices with
  | Fbqs.Slice.Threshold { threshold; _ } ->
      Alcotest.(check int) "non-sink threshold f+1" 2 threshold
  | Fbqs.Slice.Explicit _ -> Alcotest.fail "expected threshold slices"

let test_fig2_system_now_intertwined () =
  (* The paper's fix: on the same Fig. 2 graph where local slices fail,
     Algorithm 2 slices make every pair of processes intertwined. *)
  let f = 1 in
  let sys = Slice_builder.system_via_oracle ~f Builtin.fig2 in
  let all = Digraph.vertices Builtin.fig2 in
  Alcotest.(check bool) "intertwined with threshold f" true
    (Fbqs.Intertwine.set_intertwined sys (Threshold f) all)

let test_fig2_availability () =
  (* Theorem 4 on fig2: whatever single process is faulty, every correct
     process keeps an all-correct quorum. *)
  let f = 1 in
  let sys = Slice_builder.system_via_oracle ~f Builtin.fig2 in
  Pid.Set.iter
    (fun faulty_one ->
      let correct =
        Pid.Set.remove faulty_one (Digraph.vertices Builtin.fig2)
      in
      Pid.Set.iter
        (fun i ->
          let gq =
            Fbqs.Quorum.Compiled.greatest_quorum_within
              (Fbqs.Quorum.compiled_of sys) correct
          in
          Alcotest.(check bool)
            (Printf.sprintf "faulty=%d: %d has all-correct quorum" faulty_one i)
            true
            (Pid.Set.mem i gq))
        correct)
    (Digraph.vertices Builtin.fig2)

let test_quorum_size_lower_bound () =
  (* Section V: every quorum has size >= ceil((|V_sink|+f+1)/2). *)
  let f = 1 in
  let sys = Slice_builder.system_via_oracle ~f Builtin.fig2 in
  let bound = Slice_builder.sink_threshold ~sink_size:4 ~f in
  List.iter
    (fun q ->
      Alcotest.(check bool)
        (Format.asprintf "quorum %a size >= %d" Pid.Set.pp q bound)
        true
        (Pid.Set.cardinal q >= bound))
    (Fbqs.Quorum.enum_quorums sys)

let prop_theorems_on_random_graphs =
  QCheck.Test.make ~count:25
    ~name:"Theorems 3+4 via oracle slices on random graphs"
    QCheck.(pair (int_bound 500) (int_range 1 2))
    (fun (seed, f) ->
      let sink_size = (3 * f) + 2 in
      let g, _sink =
        Generators.random_byzantine_safe ~seed ~f ~sink_size ~non_sink:3 ()
      in
      let faulty = Generators.random_faulty_set ~seed ~f g in
      let correct = Pid.Set.diff (Digraph.vertices g) faulty in
      let sys = Slice_builder.system_via_oracle ~f g in
      (* Theorem 3: all correct pairs intertwined (threshold mode). We
         check availability (Theorem 4) exactly; intertwinement is
         checked on the greatest correct quorum structure to stay
         polynomial: every pair of *minimal* quorums needs |V| <= 20 to
         enumerate, which holds here. *)
      let all = Digraph.vertices g in
      Fbqs.Intertwine.set_intertwined sys (Threshold f) all
      && Pid.Set.subset correct
           (Fbqs.Quorum.Compiled.greatest_quorum_within
              (Fbqs.Quorum.compiled_of sys) correct))

let suites =
  [
    ( "slice_builder",
      [
        Alcotest.test_case "sink threshold formula" `Quick
          test_sink_threshold_formula;
        Alcotest.test_case "build_slices shapes" `Quick
          test_build_slices_shapes;
        Alcotest.test_case "fig2 becomes intertwined" `Quick
          test_fig2_system_now_intertwined;
        Alcotest.test_case "fig2 availability under any fault" `Quick
          test_fig2_availability;
        Alcotest.test_case "quorum size lower bound" `Quick
          test_quorum_size_lower_bound;
        QCheck_alcotest.to_alcotest prop_theorems_on_random_graphs;
      ] );
  ]
