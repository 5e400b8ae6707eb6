open Graphkit
open Scp

let v = Value.of_ints

let threshold_system n t =
  let members = Pid.Set.of_range 1 n in
  Fbqs.Quorum.system_of_list
    (List.map
       (fun i -> (i, Fbqs.Slice.threshold ~members ~threshold:t))
       (Pid.Set.elements members))

let run_nominating ?(seed = 0) ~nomination ~system ~peers_of
    ~initial_value_of ~fault_of () =
  Runner.run_cfg
    ~cfg:
      {
        Runner.run = Simkit.Run_config.with_seed seed Simkit.Run_config.default;
        nomination;
      }
    ~system ~peers_of ~initial_value_of ~fault_of ()

let run ?(n = 4) ?(t = 3) ?(seed = 0) ~nomination ~fault_of () =
  run_nominating ~seed ~nomination
    ~system:(threshold_system n t)
    ~peers_of:(fun _ -> Pid.Set.of_range 1 n)
    ~initial_value_of:(fun i -> v [ i ])
    ~fault_of ()

let no_faults _ = None

let test_priority_deterministic () =
  Alcotest.(check int) "stable" (Node.priority 3) (Node.priority 3);
  Alcotest.(check bool) "spreads" true (Node.priority 1 <> Node.priority 2)

let test_leader_priority_decides () =
  let o = run ~nomination:(Node.Leader_priority 30) ~fault_of:no_faults () in
  Alcotest.(check bool) "all decided" true o.all_decided;
  Alcotest.(check bool) "agreement" true o.agreement;
  Alcotest.(check bool) "validity" true o.validity

let test_leader_value_wins () =
  (* With a single live leader the decided value is exactly the
     leader's proposal — nomination converges on one value instead of
     the union. *)
  let o = run ~nomination:(Node.Leader_priority 30) ~fault_of:no_faults () in
  let members = List.init 4 (fun i -> i + 1) in
  let top =
    List.fold_left
      (fun best i ->
        if Node.priority i > Node.priority best then i else best)
      (List.hd members) members
  in
  match Pid.Map.choose_opt o.decisions with
  | Some (_, d) ->
      Alcotest.(check bool) "leader's own value decided" true
        (Value.equal d.value (v [ top ]))
  | None -> Alcotest.fail "no decision"

let test_silent_leader_round_bump () =
  (* Silence the top-priority node: round 2 admits the next leader and
     consensus still completes. *)
  let members = List.init 4 (fun i -> i + 1) in
  let top =
    List.fold_left
      (fun best i ->
        if Node.priority i > Node.priority best then i else best)
      (List.hd members) members
  in
  let fault_of i = if i = top then Some Runner.Silent else None in
  let o = run ~nomination:(Node.Leader_priority 30) ~fault_of () in
  Alcotest.(check bool) "all decided despite silent leader" true
    o.all_decided;
  Alcotest.(check bool) "agreement" true o.agreement

let test_fewer_messages_than_echo_all () =
  let leader = run ~n:7 ~t:5 ~nomination:(Node.Leader_priority 30) ~fault_of:no_faults () in
  let echo = run ~n:7 ~t:5 ~nomination:Node.Echo_all ~fault_of:no_faults () in
  Alcotest.(check bool) "both decide" true
    (leader.all_decided && echo.all_decided);
  Alcotest.(check bool)
    (Printf.sprintf "leader nomination cheaper (%d < %d)"
       leader.stats.messages_sent echo.stats.messages_sent)
    true
    (leader.stats.messages_sent < echo.stats.messages_sent)

let test_algorithm2_slices_with_leaders () =
  (* The Corollary-2 slice structure with leader nomination. *)
  let f = 1 in
  let system = Cup.Slice_builder.system_via_oracle ~f Builtin.fig2 in
  let peers_of i = Fbqs.Slice.domain (Fbqs.Quorum.slices_of system i) in
  let o =
    run_nominating ~nomination:(Node.Leader_priority 30) ~system ~peers_of
      ~initial_value_of:(fun i -> v [ i ])
      ~fault_of:(fun i -> if i = 4 then Some Runner.Silent else None)
      ()
  in
  Alcotest.(check bool) "all decided" true o.all_decided;
  Alcotest.(check bool) "agreement" true o.agreement

let prop_leader_nomination_random_seeds =
  QCheck.Test.make ~count:15 ~name:"leader nomination across seeds/faults"
    QCheck.(pair (int_bound 500) (int_range 1 4))
    (fun (seed, faulty) ->
      let fault_of i = if i = faulty then Some Runner.Silent else None in
      let o = run ~seed ~nomination:(Node.Leader_priority 30) ~fault_of () in
      o.all_decided && o.agreement && o.validity)

let suites =
  [
    ( "nomination",
      [
        Alcotest.test_case "priority deterministic" `Quick
          test_priority_deterministic;
        Alcotest.test_case "leader priority decides" `Quick
          test_leader_priority_decides;
        Alcotest.test_case "leader's value wins" `Quick test_leader_value_wins;
        Alcotest.test_case "silent leader bumps round" `Quick
          test_silent_leader_round_bump;
        Alcotest.test_case "cheaper than echo-all" `Quick
          test_fewer_messages_than_echo_all;
        Alcotest.test_case "with Algorithm 2 slices" `Quick
          test_algorithm2_slices_with_leaders;
        QCheck_alcotest.to_alcotest prop_leader_nomination_random_seeds;
      ] );
  ]
