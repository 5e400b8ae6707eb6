(* Coverage for the smaller public API surfaces that the protocol-level
   suites do not exercise directly. *)

open Graphkit

let set = Pid.Set.of_list
let pid_set = Alcotest.testable Pid.Set.pp Pid.Set.equal

let test_slice_map_members () =
  let s = Fbqs.Slice.explicit [ set [ 1; 2 ]; set [ 3 ] ] in
  let shifted = Fbqs.Slice.map_members (fun i -> i + 10) s in
  Alcotest.(check bool) "explicit shifted" true
    (Fbqs.Slice.equal shifted
       (Fbqs.Slice.explicit [ set [ 11; 12 ]; set [ 13 ] ]));
  let t = Fbqs.Slice.threshold ~members:(set [ 1; 2; 3 ]) ~threshold:2 in
  match Fbqs.Slice.map_members (fun i -> i * 2) t with
  | Fbqs.Slice.Threshold { members; threshold } ->
      Alcotest.check pid_set "threshold members mapped" (set [ 2; 4; 6 ])
        members;
      Alcotest.(check int) "threshold preserved" 2 threshold
  | Fbqs.Slice.Explicit _ -> Alcotest.fail "representation changed"

let test_contains_quorum () =
  let members = Pid.Set.of_range 1 4 in
  let sys =
    Fbqs.Quorum.system_of_list
      (List.map
         (fun i -> (i, Fbqs.Slice.threshold ~members ~threshold:3))
         (Pid.Set.elements members))
  in
  let c = Fbqs.Quorum.Compiled.compile sys in
  let contains_quorum s =
    not (Pid.Set.is_empty (Fbqs.Quorum.Compiled.greatest_quorum_within c s))
  in
  Alcotest.(check bool) "3 of 4 contains a quorum" true
    (contains_quorum (set [ 1; 2; 3 ]));
  Alcotest.(check bool) "2 of 4 does not" false (contains_quorum (set [ 1; 2 ]))

let test_reachable_from_set () =
  let g = Digraph.of_edges [ (1, 2); (3, 4) ] in
  Alcotest.check pid_set "union of closures" (set [ 1; 2; 3; 4 ])
    (Traversal.reachable_from_set g (set [ 1; 3 ]));
  Alcotest.check pid_set "empty sources" Pid.Set.empty
    (Traversal.reachable_from_set g Pid.Set.empty)

let test_condensation_dag () =
  let g = Digraph.of_edges [ (1, 2); (2, 1); (1, 3) ] in
  let c = Condensation.make g in
  let comp12 = Condensation.component_of c 1 in
  let comp3 = Condensation.component_of c 3 in
  Alcotest.(check bool) "same component" true
    (comp12 = Condensation.component_of c 2);
  Alcotest.(check (list int)) "edge in the DAG" [ comp3 ]
    (Condensation.dag_succs c comp12);
  Alcotest.(check (list int)) "sink component" [ comp3 ] (Condensation.sinks c)

let test_engine_accessors () =
  let delay = Simkit.Delay.synchronous ~delta:1 in
  let engine = Simkit.Engine.create_cfg { Simkit.Run_config.default with delay = Some delay; max_time = 1_000_000 } in
  let stats = Simkit.Engine.run engine in
  Alcotest.(check int) "clock never moved" 0 stats.end_time;
  Alcotest.(check int) "nothing sent" 0 stats.messages_sent

let test_participant_detector_strips_self_loop () =
  let g = Digraph.of_edges [ (1, 1); (1, 2) ] in
  let pd = Cup.Participant_detector.of_graph ~f:0 g in
  Alcotest.check pid_set "self filtered out" (set [ 2 ])
    (Cup.Participant_detector.query pd 1);
  Alcotest.check pid_set "unknown process" Pid.Set.empty
    (Cup.Participant_detector.query pd 42)

let test_value_pp_and_to_list () =
  let v = Scp.Value.of_ints [ 3; 1; 2; 1 ] in
  Alcotest.(check (list int)) "sorted dedup" [ 1; 2; 3 ] (Scp.Value.to_list v);
  Alcotest.(check string) "rendering" "{1,2,3}"
    (Format.asprintf "%a" Scp.Value.pp v);
  Alcotest.(check bool) "is_empty" true (Scp.Value.is_empty Scp.Value.empty);
  Alcotest.(check bool) "singleton" true
    (Scp.Value.equal (Scp.Value.singleton 7) (Scp.Value.of_ints [ 7 ]))

let test_msg_size_accounting () =
  let m = Cup.Msg.Know (set [ 1; 2; 3 ]) in
  Alcotest.(check int) "know size" 4 (Cup.Msg.size m);
  Alcotest.(check int) "request size" 1 (Cup.Msg.size Cup.Msg.Know_request);
  Alcotest.(check int) "flood size" 5
    (Cup.Msg.size (Cup.Msg.Get_sink { origin = 1; path = [ 1; 2; 3 ] }))

let test_pbft_quorum_arithmetic_matches_slices () =
  (* The PBFT quorum size equals the Algorithm 2 sink slice size: the
     same ceil((n+f+1)/2) arithmetic in both protocols. *)
  for n = 3 to 15 do
    for f = 0 to (n - 1) / 3 do
      Alcotest.(check int)
        (Printf.sprintf "n=%d f=%d" n f)
        (Cup.Slice_builder.sink_threshold ~sink_size:n ~f)
        (Bftcup.Pbft.quorum_size ~n ~f)
    done
  done

let suites =
  [
    ( "api_coverage",
      [
        Alcotest.test_case "Slice.map_members" `Quick test_slice_map_members;
        Alcotest.test_case "Quorum.contains_quorum" `Quick
          test_contains_quorum;
        Alcotest.test_case "Traversal.reachable_from_set" `Quick
          test_reachable_from_set;
        Alcotest.test_case "Condensation DAG accessors" `Quick
          test_condensation_dag;
        Alcotest.test_case "Engine accessors" `Quick test_engine_accessors;
        Alcotest.test_case "PD self-loop and unknowns" `Quick
          test_participant_detector_strips_self_loop;
        Alcotest.test_case "Value pp/to_list" `Quick test_value_pp_and_to_list;
        Alcotest.test_case "Cup.Msg.size" `Quick test_msg_size_accounting;
        Alcotest.test_case "PBFT quorum = sink slice size" `Quick
          test_pbft_quorum_arithmetic_matches_slices;
      ] );
  ]
