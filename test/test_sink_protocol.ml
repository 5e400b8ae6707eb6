open Graphkit
open Cup

let no_faults _ = None

let run ?(seed = 0) ~graph ~f ~fault_of () =
  Sink_protocol.run_cfg
    ~cfg:{ Sink_protocol.default_run_config with seed }
    ~graph ~f ~fault_of ()

let check_answers ?(faulty = Pid.Set.empty) ?(f = 1) ~graph ~sink
    (result : Sink_protocol.run_result) =
  let correct = Pid.Set.diff (Digraph.vertices graph) faulty in
  Pid.Set.iter
    (fun i ->
      match Pid.Map.find_opt i result.answers with
      | None -> Alcotest.failf "correct process %d got no answer" i
      | Some (a : Sink_oracle.answer) ->
          Alcotest.(check bool)
            (Printf.sprintf "in_sink flag of %d" i)
            (Pid.Set.mem i sink) a.in_sink;
          if Pid.Set.mem i sink then
            Alcotest.(check bool)
              (Printf.sprintf "sink member %d sees V_sink" i)
              true
              (Pid.Set.equal a.view sink)
          else begin
            Alcotest.(check bool)
              (Printf.sprintf "view of %d within V_sink" i)
              true
              (Pid.Set.subset a.view sink);
            Alcotest.(check bool)
              (Printf.sprintf "view of %d has f+1 correct sink members" i)
              true
              (Pid.Set.cardinal (Pid.Set.inter a.view correct) >= f + 1)
          end)
    correct

let test_fig1_fault_free () =
  (* Fig. 1 is 1-OSR: process 2 reaches the sink through a single
     disjoint path, so the distributed protocol requires f = 0 there
     (the paper uses fig1 for the slice examples, not for
     Byzantine-safety). *)
  let result =
    run ~graph:Builtin.fig1 ~f:0 ~fault_of:no_faults ()
  in
  check_answers ~f:0 ~graph:Builtin.fig1 ~sink:Builtin.fig1_sink result

let test_fig2_fault_free () =
  let result =
    run ~graph:Builtin.fig2 ~f:1 ~fault_of:no_faults ()
  in
  check_answers ~graph:Builtin.fig2 ~sink:Builtin.fig2_sink result

let test_fig2_with_silent_sink_member () =
  let faulty = Pid.Set.singleton 4 in
  let fault_of i =
    if Pid.Set.mem i faulty then Some Sink_protocol.Silent else None
  in
  let result = run ~graph:Builtin.fig2 ~f:1 ~fault_of () in
  check_answers ~faulty ~graph:Builtin.fig2 ~sink:Builtin.fig2_sink result

let test_fig2_with_silent_non_sink () =
  let faulty = Pid.Set.singleton 6 in
  let fault_of i =
    if Pid.Set.mem i faulty then Some Sink_protocol.Silent else None
  in
  let result = run ~graph:Builtin.fig2 ~f:1 ~fault_of () in
  check_answers ~faulty ~graph:Builtin.fig2 ~sink:Builtin.fig2_sink result

let test_sink_liar_defeated () =
  (* A faulty non-sink member eagerly answers GET_SINK with a fake sink;
     Algorithm 3's "repeated more than f times" rule must reject it. *)
  let fake = Pid.Set.of_list [ 5; 6; 7 ] in
  let faulty = Pid.Set.singleton 6 in
  let fault_of i =
    if Pid.Set.mem i faulty then Some (Sink_protocol.Sink_liar fake) else None
  in
  let result = run ~graph:Builtin.fig2 ~f:1 ~fault_of () in
  check_answers ~faulty ~graph:Builtin.fig2 ~sink:Builtin.fig2_sink result

let test_sink_liar_inside_sink_defeated () =
  let fake = Pid.Set.of_list [ 4; 5; 6 ] in
  let faulty = Pid.Set.singleton 4 in
  let fault_of i =
    if Pid.Set.mem i faulty then Some (Sink_protocol.Sink_liar fake) else None
  in
  let result = run ~graph:Builtin.fig2 ~f:1 ~fault_of () in
  check_answers ~faulty ~graph:Builtin.fig2 ~sink:Builtin.fig2_sink result

let test_know_liar_fabrications_filtered () =
  let fakes = Pid.Set.of_list [ 90; 91 ] in
  let faulty = Pid.Set.singleton 2 in
  let fault_of i =
    if Pid.Set.mem i faulty then Some (Sink_protocol.Know_liar fakes) else None
  in
  let result = run ~graph:Builtin.fig2 ~f:1 ~fault_of () in
  check_answers ~faulty ~graph:Builtin.fig2 ~sink:Builtin.fig2_sink result;
  (* No fabricated id ever surfaces in any answer. *)
  Pid.Map.iter
    (fun i (a : Sink_oracle.answer) ->
      Alcotest.(check bool)
        (Printf.sprintf "no fabricated ids for %d" i)
        true
        (Pid.Set.is_empty (Pid.Set.inter a.view fakes)))
    result.answers

let test_matches_pure_oracle () =
  let result =
    run ~graph:Builtin.fig1 ~f:0 ~fault_of:no_faults ()
  in
  Pid.Map.iter
    (fun i (a : Sink_oracle.answer) ->
      let expected = Sink_oracle.get_sink Builtin.fig1 i in
      Alcotest.(check bool)
        (Printf.sprintf "protocol matches oracle for %d" i)
        true
        (a.in_sink = expected.in_sink && Pid.Set.subset a.view expected.view))
    result.answers

(* Definition 8 at f = 3 on 16 + 16 processes, two of the three silent
   ones in the sink: the graph and faulty set of `sink run --graph
   random --sink-size 16 --non-sink 16 -f 3 --faulty 0,1,17`. *)
let test_f3_three_silent () =
  let graph, sink =
    Generators.random_byzantine_safe ~seed:1 ~f:3 ~sink_size:16 ~non_sink:16
      ()
  in
  let faulty = Pid.Set.of_list [ 0; 1; 17 ] in
  let fault_of i =
    if Pid.Set.mem i faulty then Some Sink_protocol.Silent else None
  in
  let result = run ~seed:1 ~graph ~f:3 ~fault_of () in
  check_answers ~faulty ~f:3 ~graph ~sink result

let test_deterministic () =
  let run () =
    run ~seed:9 ~graph:Builtin.fig2 ~f:1 ~fault_of:no_faults ()
  in
  let r1 = run () and r2 = run () in
  Alcotest.(check int) "same message count" r1.stats.messages_sent
    r2.stats.messages_sent;
  Alcotest.(check int) "same end time" r1.stats.end_time r2.stats.end_time

let prop_random_graphs_fault_free =
  QCheck.Test.make ~count:10
    ~name:"sink protocol correct on random byzantine-safe graphs"
    QCheck.(pair (int_bound 200) (int_range 1 3))
    (fun (seed, f) ->
      let g, sink =
        Generators.random_byzantine_safe ~seed ~f ~sink_size:((3 * f) + 2)
          ~non_sink:3 ()
      in
      let result = run ~seed ~graph:g ~f ~fault_of:no_faults () in
      Pid.Set.for_all
        (fun i ->
          match Pid.Map.find_opt i result.answers with
          | None -> false
          | Some a ->
              if Pid.Set.mem i sink then
                a.in_sink && Pid.Set.equal a.view sink
              else (not a.in_sink) && Pid.Set.subset a.view sink)
        (Digraph.vertices g))

let prop_random_graphs_with_silent_fault =
  QCheck.Test.make ~count:8
    ~name:"sink protocol tolerates a silent faulty process"
    QCheck.(pair (int_bound 200) (int_range 1 3))
    (fun (seed, f) ->
      let g, sink =
        Generators.random_byzantine_safe ~seed ~f ~sink_size:((3 * f) + 2)
          ~non_sink:3 ()
      in
      let faulty = Generators.random_faulty_set ~seed ~f g in
      let fault_of i =
        if Pid.Set.mem i faulty then Some Sink_protocol.Silent else None
      in
      let result = run ~seed ~graph:g ~f ~fault_of () in
      Pid.Set.for_all
        (fun i ->
          Pid.Set.mem i faulty
          ||
          match Pid.Map.find_opt i result.answers with
          | None -> false
          | Some a ->
              if Pid.Set.mem i sink then
                a.in_sink && Pid.Set.subset a.view sink
                && Pid.Set.subset (Pid.Set.diff sink faulty) a.view
              else (not a.in_sink) && Pid.Set.subset a.view sink)
        (Digraph.vertices g))

(* Regression: [resolve_replies] used to walk a [Hashtbl], so whenever
   several candidate views cleared the [> f] threshold in the same
   check the adopted sink depended on bucket order. Ties must break to
   the [Pid.Set.compare]-minimum, whatever order the replies are
   enumerated or inserted in. *)
let test_reply_tie_breaks_deterministically () =
  let a = Pid.Set.of_list [ 1; 2; 3 ] in
  let b = Pid.Set.of_list [ 1; 2; 4 ] in
  let winner = if Pid.Set.compare a b <= 0 then a else b in
  let map_of l =
    List.fold_left (fun m (src, v) -> Pid.Map.add src v m) Pid.Map.empty l
  in
  (* f = 1: both candidates are echoed by two distinct responders. *)
  let orders =
    [
      [ (10, a); (11, a); (12, b); (13, b) ];
      [ (12, b); (13, b); (10, a); (11, a) ];
      [ (12, b); (10, a); (13, b); (11, a) ];
    ]
  in
  List.iter
    (fun l ->
      match Sink_protocol.resolve_replies ~f:1 (map_of l) with
      | None -> Alcotest.fail "a candidate over threshold must win"
      | Some v ->
          Alcotest.(check bool)
            "tie resolves to the Pid.Set.compare minimum" true
            (Pid.Set.equal v winner))
    orders;
  (* Three-way tie at f = 0: every singleton clears the threshold. *)
  let singles = List.map Pid.Set.singleton [ 7; 3; 5 ] in
  let least =
    List.fold_left
      (fun acc v -> if Pid.Set.compare v acc < 0 then v else acc)
      (List.hd singles) (List.tl singles)
  in
  let replies =
    map_of (List.mapi (fun i v -> (20 + i, v)) singles)
  in
  (match Sink_protocol.resolve_replies ~f:0 replies with
  | None -> Alcotest.fail "three candidates over threshold"
  | Some v ->
      Alcotest.(check bool) "three-way tie is deterministic" true
        (Pid.Set.equal v least));
  (* Repeated runs on the same map agree byte-for-byte. *)
  List.iter
    (fun _ ->
      Alcotest.(check bool)
        "repeated evaluation returns the same sink" true
        (match Sink_protocol.resolve_replies ~f:0 replies with
        | Some v -> Pid.Set.equal v least
        | None -> false))
    [ 1; 2; 3 ]

let test_replies_below_threshold () =
  let a = Pid.Set.of_list [ 1; 2; 3 ] in
  let replies = Pid.Map.add 10 a Pid.Map.empty in
  Alcotest.(check bool)
    "one echo is not enough at f = 1" true
    (Option.is_none (Sink_protocol.resolve_replies ~f:1 replies))

let suites =
  [
    ( "sink_protocol",
      [
        Alcotest.test_case "fig1 fault-free" `Quick test_fig1_fault_free;
        Alcotest.test_case "fig2 fault-free" `Quick test_fig2_fault_free;
        Alcotest.test_case "fig2 silent sink member" `Quick
          test_fig2_with_silent_sink_member;
        Alcotest.test_case "fig2 silent non-sink member" `Quick
          test_fig2_with_silent_non_sink;
        Alcotest.test_case "sink liar (non-sink) defeated" `Quick
          test_sink_liar_defeated;
        Alcotest.test_case "sink liar (sink member) defeated" `Quick
          test_sink_liar_inside_sink_defeated;
        Alcotest.test_case "know liar filtered" `Quick
          test_know_liar_fabrications_filtered;
        Alcotest.test_case "protocol matches pure oracle" `Quick
          test_matches_pure_oracle;
        Alcotest.test_case "deterministic runs" `Quick test_deterministic;
        Alcotest.test_case "reply ties break deterministically" `Quick
          test_reply_tie_breaks_deterministically;
        Alcotest.test_case "replies below threshold" `Quick
          test_replies_below_threshold;
        QCheck_alcotest.to_alcotest prop_random_graphs_fault_free;
        QCheck_alcotest.to_alcotest prop_random_graphs_with_silent_fault;
        Alcotest.test_case "f=3 16+16, three silent: Definition 8" `Quick
          test_f3_three_silent;
      ] );
  ]
