open Graphkit
open Simkit
open Bftcup

let v = Scp.Value.of_ints

let test_quorum_size () =
  (* ceil((n+f+1)/2) *)
  Alcotest.(check int) "n=4 f=1" 3 (Pbft.quorum_size ~n:4 ~f:1);
  Alcotest.(check int) "n=5 f=1" 4 (Pbft.quorum_size ~n:5 ~f:1);
  Alcotest.(check int) "n=7 f=2" 5 (Pbft.quorum_size ~n:7 ~f:2);
  Alcotest.(check int) "n=3 f=0" 2 (Pbft.quorum_size ~n:3 ~f:0)

let test_leader_rotation () =
  let members = Pid.Set.of_list [ 3; 7; 11 ] in
  Alcotest.(check int) "view 0" 3 (Pbft.leader_of members 0);
  Alcotest.(check int) "view 1" 7 (Pbft.leader_of members 1);
  Alcotest.(check int) "view 2" 11 (Pbft.leader_of members 2);
  Alcotest.(check int) "view 3 wraps" 3 (Pbft.leader_of members 3)

let run_pbft ?(seed = 0) ?(n = 4) ?(f = 1) ~silent () =
  let members = Pid.Set.of_range 1 n in
  let delay = Delay.partial_synchrony ~gst:30 ~delta:4 ~seed in
  let engine = Engine.create_cfg ~pp_msg:Pbft.pp_msg { Run_config.default with delay = Some delay; max_time = 100_000 } in
  let decisions = ref Pid.Map.empty in
  Pid.Set.iter
    (fun i ->
      if Pid.Set.mem i silent then Engine.add_node engine i Pbft.silent
      else
        Engine.add_node engine i
          (Pbft.behavior
             {
               Pbft.self = i;
               members;
               f;
               initial_value = v [ i * 10 ];
               view_timeout = 50;
               on_decide =
                 (fun pid d -> decisions := Pid.Map.add pid d.value !decisions);
             }))
    members;
  let correct = Pid.Set.diff members silent in
  let stop () = Pid.Set.for_all (fun i -> Pid.Map.mem i !decisions) correct in
  let stats = Engine.run ~stop engine in
  (!decisions, correct, stats)

let check_agreed name decisions correct =
  Alcotest.(check int)
    (name ^ ": all correct decided")
    (Pid.Set.cardinal correct)
    (Pid.Map.cardinal decisions);
  match Pid.Map.bindings decisions with
  | [] -> Alcotest.fail "nobody decided"
  | (_, v0) :: rest ->
      List.iter
        (fun (_, v') ->
          Alcotest.(check bool) (name ^ ": agreement") true
            (Scp.Value.equal v0 v'))
        rest

let test_fault_free () =
  let decisions, correct, _ = run_pbft ~silent:Pid.Set.empty () in
  check_agreed "fault-free" decisions correct;
  (* Leader 1 was live, so its proposal goes through in view 0. *)
  match Pid.Map.choose_opt decisions with
  | Some (_, value) ->
      Alcotest.(check bool) "leader's value decided" true
        (Scp.Value.equal value (v [ 10 ]))
  | None -> Alcotest.fail "no decision"

let test_silent_backup () =
  let decisions, correct, _ =
    run_pbft ~silent:(Pid.Set.singleton 4) ()
  in
  check_agreed "silent backup" decisions correct

let test_silent_leader_view_change () =
  (* Leader of view 0 is 1; with 1 silent the group must change views
     and decide under leader 2. *)
  let decisions, correct, _ =
    run_pbft ~silent:(Pid.Set.singleton 1) ()
  in
  check_agreed "silent leader" decisions correct;
  match Pid.Map.choose_opt decisions with
  | Some (_, value) ->
      Alcotest.(check bool) "a backup's value decided" true
        (not (Scp.Value.equal value (v [ 10 ])))
  | None -> Alcotest.fail "no decision"

let test_larger_group_two_faults () =
  let decisions, correct, _ =
    run_pbft ~n:7 ~f:2 ~silent:(Pid.Set.of_list [ 1; 2 ]) ()
  in
  check_agreed "7 replicas, 2 silent (both leaders)" decisions correct

let prop_pbft_agreement_random_faults =
  QCheck.Test.make ~count:15 ~name:"pbft agreement under random silent fault"
    QCheck.(pair (int_bound 500) (int_range 1 4))
    (fun (seed, who) ->
      let decisions, correct, _ =
        run_pbft ~seed ~silent:(Pid.Set.singleton who) ()
      in
      Pid.Map.cardinal decisions = Pid.Set.cardinal correct
      &&
      match Pid.Map.bindings decisions with
      | [] -> false
      | (_, v0) :: rest ->
          List.for_all (fun (_, v') -> Scp.Value.equal v0 v') rest)

let suites =
  [
    ( "pbft",
      [
        Alcotest.test_case "quorum size" `Quick test_quorum_size;
        Alcotest.test_case "leader rotation" `Quick test_leader_rotation;
        Alcotest.test_case "fault-free decides in view 0" `Quick
          test_fault_free;
        Alcotest.test_case "silent backup" `Quick test_silent_backup;
        Alcotest.test_case "silent leader forces view change" `Quick
          test_silent_leader_view_change;
        Alcotest.test_case "7 replicas, 2 silent" `Quick
          test_larger_group_two_faults;
        QCheck_alcotest.to_alcotest prop_pbft_agreement_random_faults;
      ] );
  ]
