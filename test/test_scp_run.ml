open Graphkit
open Scp

let v = Value.of_ints

let threshold_system n t =
  let members = Pid.Set.of_range 1 n in
  Fbqs.Quorum.system_of_list
    (List.map
       (fun i -> (i, Fbqs.Slice.threshold ~members ~threshold:t))
       (Pid.Set.elements members))

let all_peers n _ = Pid.Set.of_range 1 n

let own_value i = v [ i ]

let no_faults _ = None

let run ?(seed = 0) ?delay ?max_time ~system ~peers_of ~initial_value_of
    ~fault_of () =
  let d = Runner.default_cfg in
  let max_time = Option.value ~default:d.run.max_time max_time in
  Runner.run_cfg
    ~cfg:{ d with run = { d.run with seed; delay; max_time } }
    ~system ~peers_of ~initial_value_of ~fault_of ()

let check_consensus ?(expect_decided = true) name (o : Runner.outcome) =
  Alcotest.(check bool) (name ^ ": all decided") expect_decided o.all_decided;
  Alcotest.(check bool) (name ^ ": agreement") true o.agreement;
  Alcotest.(check bool) (name ^ ": validity") true o.validity

let test_four_nodes_fault_free () =
  let o =
    run
      ~system:(threshold_system 4 3)
      ~peers_of:(all_peers 4) ~initial_value_of:own_value ~fault_of:no_faults
      ()
  in
  check_consensus "4 nodes" o

let test_four_nodes_one_silent () =
  let fault_of i = if i = 4 then Some Runner.Silent else None in
  let o =
    run
      ~system:(threshold_system 4 3)
      ~peers_of:(all_peers 4) ~initial_value_of:own_value ~fault_of ()
  in
  check_consensus "3 of 4 with silent" o;
  Alcotest.(check int) "three deciders" 3 (Pid.Map.cardinal o.decisions)

let test_seven_nodes_two_silent () =
  let fault_of i = if i <= 2 then Some Runner.Silent else None in
  let o =
    run
      ~system:(threshold_system 7 5)
      ~peers_of:(all_peers 7) ~initial_value_of:own_value ~fault_of ()
  in
  check_consensus "5 of 7 with two silent" o

let test_fig1_explicit_slices () =
  (* The Section III-D system: process 8 is Byzantine (silent). The
     maximal consensus cluster is W = {1..7}, so all seven correct
     processes must decide and agree. Process pairs like (1, 4) do not
     know each other initially — flooding and peer sync must bridge
     them. *)
  let system =
    Fbqs.Quorum.system_of_list
      (List.map
         (fun (i, slices) -> (i, Fbqs.Slice.explicit slices))
         Builtin.fig1_slices)
  in
  let peers_of i = Digraph.succs Builtin.fig1 i in
  let fault_of i = if i = 8 then Some Runner.Silent else None in
  let o =
    run ~system ~peers_of ~initial_value_of:own_value ~fault_of ()
  in
  check_consensus "fig1" o;
  Alcotest.(check int) "seven deciders" 7 (Pid.Map.cardinal o.decisions)

let test_fig2_algorithm2_slices () =
  (* Corollary 2 end-to-end: sink-detector slices on the Fig. 2 graph
     solve consensus, including with a silent sink member. *)
  let f = 1 in
  let system = Cup.Slice_builder.system_via_oracle ~f Builtin.fig2 in
  let peers_of i = Fbqs.Slice.domain (Fbqs.Quorum.slices_of system i) in
  List.iter
    (fun faulty ->
      let fault_of i = if i = faulty then Some Runner.Silent else None in
      let o =
        run ~system ~peers_of ~initial_value_of:own_value ~fault_of ()
      in
      check_consensus (Printf.sprintf "fig2 faulty=%d" faulty) o)
    [ 4; 6 ]

let test_disjoint_quorums_violate_agreement () =
  (* Experiment E3's heart: Theorem 2's local slices on Fig. 2 create
     the disjoint quorums {5,6,7} and {1,2,3,4}. A network adversary
     that stalls cross-group traffic until its (legal) partial-synchrony
     deadline lets both groups decide independently — a real agreement
     violation, with zero Byzantine processes. *)
  let pd = Cup.Participant_detector.of_graph ~f:1 Builtin.fig2 in
  let system = Cup.Local_slices.system ~rule:Cup.Local_slices.all_but_one pd in
  let peers_of i = Cup.Participant_detector.query pd i in
  let sink_side i = i <= 4 in
  let delay =
    Simkit.Delay.targeted ~gst:50_000 ~delta:5 ~seed:1 ~slow:(fun a b ->
        sink_side a <> sink_side b)
  in
  let initial_value_of i = if sink_side i then v [ 100 ] else v [ 200 ] in
  let o =
    run ~delay ~max_time:120_000 ~system ~peers_of ~initial_value_of
      ~fault_of:no_faults ()
  in
  Alcotest.(check bool) "everyone decided" true o.all_decided;
  Alcotest.(check bool) "agreement VIOLATED" false o.agreement

let test_same_slices_friendly_network_live () =
  (* With disjoint quorums nothing ever forces the two groups to agree,
     even on a synchronous network — each can externalize from its own
     quorum alone. What the engine does guarantee is liveness and
     validity; agreement is exactly what Theorem 2 says cannot be
     guaranteed, so we do not assert it here. *)
  let pd = Cup.Participant_detector.of_graph ~f:1 Builtin.fig2 in
  let system = Cup.Local_slices.system ~rule:Cup.Local_slices.all_but_one pd in
  let peers_of i = Cup.Participant_detector.query pd i in
  let delay = Simkit.Delay.synchronous ~delta:2 in
  let o =
    run ~delay ~system ~peers_of ~initial_value_of:own_value
      ~fault_of:no_faults ()
  in
  Alcotest.(check bool) "friendly network: all decided" true o.all_decided;
  Alcotest.(check bool) "friendly network: validity" true o.validity

let test_accept_forger_ignored () =
  let system = threshold_system 4 3 in
  let evil = Ballot.make 99 (v [ 666 ]) in
  let fault_of i =
    if i = 4 then
      Some (Runner.Accept_forger [ Statement.Commit evil ])
    else None
  in
  let o =
    run ~system ~peers_of:(all_peers 4) ~initial_value_of:own_value
      ~fault_of ()
  in
  check_consensus "forged accepts" o;
  Pid.Map.iter
    (fun _ (d : Node.decision) ->
      Alcotest.(check bool) "evil tx not decided" false
        (List.mem 666 (Value.to_list d.value)))
    o.decisions

let test_nomination_equivocator_safe () =
  let system = threshold_system 5 4 in
  let fault_of i =
    if i = 5 then
      Some
        (Runner.Nomination_equivocator
           {
             split = (fun j -> j mod 2 = 0);
             value_a = v [ 71 ];
             value_b = v [ 72 ];
           })
    else None
  in
  let o =
    run ~system ~peers_of:(all_peers 5) ~initial_value_of:own_value
      ~fault_of ()
  in
  check_consensus "nomination equivocation" o

let test_deterministic () =
  let run () =
    run ~seed:3
      ~system:(threshold_system 4 3)
      ~peers_of:(all_peers 4) ~initial_value_of:own_value ~fault_of:no_faults
      ()
  in
  let o1 = run () and o2 = run () in
  Alcotest.(check int) "same messages" o1.stats.messages_sent
    o2.stats.messages_sent;
  Alcotest.(check bool) "same decisions" true
    (Pid.Map.equal
       (fun (a : Node.decision) b -> Value.equal a.value b.value)
       o1.decisions o2.decisions)

let prop_random_byzantine_safe_graphs_consensus =
  QCheck.Test.make ~count:6
    ~name:"SCP + Algorithm 2 slices decide and agree on random graphs"
    QCheck.(int_bound 100)
    (fun seed ->
      let f = 1 in
      let g, _sink =
        Generators.random_byzantine_safe ~seed ~f ~sink_size:5 ~non_sink:2 ()
      in
      let faulty = Generators.random_faulty_set ~seed ~f g in
      let system = Cup.Slice_builder.system_via_oracle ~f g in
      let peers_of i = Fbqs.Slice.domain (Fbqs.Quorum.slices_of system i) in
      let fault_of i =
        if Pid.Set.mem i faulty then Some Runner.Silent else None
      in
      let o =
        run ~seed ~system ~peers_of ~initial_value_of:own_value
          ~fault_of ()
      in
      o.all_decided && o.agreement && o.validity)

(* A run's metrics are a function of the run alone: each node counts
   its own compiled-view reuses and compiles, so no run in flight
   beside it may move them. *)
let run_metrics ~n ~t seed =
  let metrics = Obs.Metrics.create () in
  let d = Runner.default_cfg in
  ignore
    (Runner.run_cfg
       ~cfg:{ d with run = { d.run with seed; metrics = Some metrics } }
       ~system:(threshold_system n t) ~peers_of:(all_peers n)
       ~initial_value_of:own_value ~fault_of:no_faults ());
  metrics

let metrics_json ~n ~t seed =
  Obs.Json.to_string (Obs.Metrics.to_json (run_metrics ~n ~t seed))

let test_overlapping_runs_metrics () =
  let seeds = List.init 8 (fun k -> k + 1) in
  Alcotest.(check (list string))
    "metrics at jobs 2 = sequential"
    (List.map (metrics_json ~n:7 ~t:5) seeds)
    (Simkit.Exec.map ~jobs:2 (metrics_json ~n:7 ~t:5) seeds)

(* A node recompiles its view only when it learns a new origin's
   slices, at most n times, so a run of n nodes compiles at most n^2
   views. *)
let test_view_compiles_bounded () =
  let n = 4 in
  let misses =
    Obs.Metrics.counter_value
      (Obs.Metrics.counter (run_metrics ~n ~t:3 1) "fbqs_cache_misses")
  in
  Alcotest.(check bool)
    (Printf.sprintf "%d compiles <= n^2" misses)
    true
    (misses > 0 && misses <= n * n)

let suites =
  [
    ( "scp_run",
      [
        Alcotest.test_case "4 nodes fault-free" `Quick
          test_four_nodes_fault_free;
        Alcotest.test_case "4 nodes, 1 silent" `Quick
          test_four_nodes_one_silent;
        Alcotest.test_case "7 nodes, 2 silent" `Quick
          test_seven_nodes_two_silent;
        Alcotest.test_case "fig1 explicit slices" `Quick
          test_fig1_explicit_slices;
        Alcotest.test_case "fig2 + Algorithm 2 slices" `Quick
          test_fig2_algorithm2_slices;
        Alcotest.test_case "disjoint quorums violate agreement" `Quick
          test_disjoint_quorums_violate_agreement;
        Alcotest.test_case "local slices live on friendly network" `Quick
          test_same_slices_friendly_network_live;
        Alcotest.test_case "accept forger ignored" `Quick
          test_accept_forger_ignored;
        Alcotest.test_case "nomination equivocator safe" `Quick
          test_nomination_equivocator_safe;
        Alcotest.test_case "deterministic" `Quick test_deterministic;
        QCheck_alcotest.to_alcotest
          prop_random_byzantine_safe_graphs_consensus;
        Alcotest.test_case "overlapping runs keep their metrics" `Quick
          test_overlapping_runs_metrics;
        Alcotest.test_case "view compiles at most n*n" `Quick
          test_view_compiles_bounded;
      ] );
  ]
