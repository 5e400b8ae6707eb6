open Graphkit
open Bftcup

let v = Scp.Value.of_ints
let own_value i = v [ i ]

let check name (o : Protocol.outcome) =
  Alcotest.(check bool) (name ^ ": all decided") true o.all_decided;
  Alcotest.(check bool) (name ^ ": agreement") true o.agreement;
  Alcotest.(check bool) (name ^ ": validity") true o.validity

let test_fig2_fault_free () =
  let o =
    Protocol.run ~graph:Builtin.fig2 ~f:1 ~initial_value_of:own_value
      ~faulty:Pid.Set.empty ()
  in
  check "fig2 fault-free" o;
  Alcotest.(check int) "seven deciders" 7 (Pid.Map.cardinal o.decisions)

let test_fig2_silent_sink_member () =
  let o =
    Protocol.run ~graph:Builtin.fig2 ~f:1 ~initial_value_of:own_value
      ~faulty:(Pid.Set.singleton 2) ()
  in
  check "fig2 silent sink member" o;
  Alcotest.(check int) "six deciders" 6 (Pid.Map.cardinal o.decisions)

let test_fig2_silent_non_sink () =
  let o =
    Protocol.run ~graph:Builtin.fig2 ~f:1 ~initial_value_of:own_value
      ~faulty:(Pid.Set.singleton 7) ()
  in
  check "fig2 silent non-sink" o

let test_fig2_silent_first_leader () =
  (* Member 1 leads view 0 of the sink consensus; its silence forces a
     view change before dissemination. *)
  let o =
    Protocol.run ~graph:Builtin.fig2 ~f:1 ~initial_value_of:own_value
      ~faulty:(Pid.Set.singleton 1) ()
  in
  check "fig2 silent leader" o

let test_decided_value_from_sink () =
  (* BFT-CUP decides a sink leader's value: non-sink proposals never
     win (they are not part of the sink consensus). *)
  let o =
    Protocol.run ~graph:Builtin.fig2 ~f:1 ~initial_value_of:own_value
      ~faulty:Pid.Set.empty ()
  in
  match Pid.Map.choose_opt o.decisions with
  | Some (_, value) ->
      let sink_values = List.map (fun i -> v [ i ]) [ 1; 2; 3; 4 ] in
      Alcotest.(check bool) "decided value proposed by a sink member" true
        (List.exists (Scp.Value.equal value) sink_values)
  | None -> Alcotest.fail "no decision"

let test_trace_brackets_consensus () =
  (* The consensus stage is bracketed by one runner run_start/run_end
     pair, and every decider, PBFT replica or non-sink requester, logs
     one decide event with its value. *)
  let trace, events = Obs.Trace.recording () in
  let cfg = { Simkit.Run_config.default with seed = 1; trace = Some trace } in
  let o =
    Protocol.run ~cfg ~graph:Builtin.fig2 ~f:1 ~initial_value_of:own_value
      ~faulty:(Pid.Set.singleton 1) ()
  in
  check "fig2 traced" o;
  let events = events () in
  let named scope name =
    List.filter
      (fun (e : Obs.Trace.event) -> e.scope = scope && e.name = name)
      events
  in
  let field k (e : Obs.Trace.event) = List.assoc k e.fields in
  (match (named "runner" "run_start", named "runner" "run_end") with
  | [ start ], [ stop ] ->
      Alcotest.(check int) "starts at t=0" 0 start.time;
      Alcotest.(check bool) "the stage's seed" true
        (field "seed" start = Obs.Json.Int 2);
      Alcotest.(check int) "closes the trace" (List.length events - 1) stop.seq;
      Alcotest.(check int) "at the stage's end" o.consensus_stats.end_time
        stop.time;
      Alcotest.(check bool) "carries the verdict" true
        (field "agreement" stop = Obs.Json.Bool o.agreement
        && field "all_decided" stop = Obs.Json.Bool o.all_decided)
  | starts, stops ->
      Alcotest.failf "expected one run_start and one run_end, got %d and %d"
        (List.length starts) (List.length stops));
  let decides = named "bftcup" "decide" in
  let logged =
    List.map
      (fun e ->
        match (field "node" e, field "value" e) with
        | Obs.Json.Int i, Obs.Json.String value -> (i, value)
        | _ -> Alcotest.fail "decide event without node and value")
      decides
  in
  let expected =
    List.map
      (fun (i, value) -> (i, Format.asprintf "%a" Scp.Value.pp value))
      (Pid.Map.bindings o.decisions)
  in
  Alcotest.(check (list (pair int string)))
    "one decide per decider, with its value" expected
    (List.sort compare logged);
  Alcotest.(check bool) "non-sink requesters decided too" true
    (List.exists (fun (i, _) -> i >= 5) logged)

let prop_random_graphs =
  QCheck.Test.make ~count:8 ~name:"BFT-CUP on random byzantine-safe graphs"
    QCheck.(int_bound 300)
    (fun seed ->
      let f = 1 in
      let g, _sink =
        Generators.random_byzantine_safe ~seed ~f ~sink_size:5 ~non_sink:3 ()
      in
      let faulty = Generators.random_faulty_set ~seed ~f g in
      let o =
        Protocol.run
          ~cfg:(Simkit.Run_config.with_seed seed Simkit.Run_config.default)
          ~graph:g ~f ~initial_value_of:own_value ~faulty ()
      in
      o.all_decided && o.agreement && o.validity)

let suites =
  [
    ( "bftcup",
      [
        Alcotest.test_case "fig2 fault-free" `Quick test_fig2_fault_free;
        Alcotest.test_case "fig2 silent sink member" `Quick
          test_fig2_silent_sink_member;
        Alcotest.test_case "fig2 silent non-sink" `Quick
          test_fig2_silent_non_sink;
        Alcotest.test_case "fig2 silent first leader" `Quick
          test_fig2_silent_first_leader;
        Alcotest.test_case "decided value from the sink" `Quick
          test_decided_value_from_sink;
        QCheck_alcotest.to_alcotest prop_random_graphs;
        Alcotest.test_case "trace brackets consensus, logs each decision"
          `Quick test_trace_brackets_consensus;
      ] );
  ]
