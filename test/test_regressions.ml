(* Pinned regressions for bugs found during development (DESIGN.md §7). *)

open Graphkit

(* Bug 1: non-FIFO reordering could mask a newer Know view with a stale
   one, stalling the SINK termination check forever. Found by qcheck on
   this exact instance (generator seed 198). *)
let test_knowledge_reordering_seed198 () =
  let seed = 198 and f = 1 in
  let g, sink =
    Generators.random_byzantine_safe ~seed ~f ~sink_size:5 ~non_sink:3 ()
  in
  let faulty = Generators.random_faulty_set ~seed ~f g in
  let fault_of i =
    if Pid.Set.mem i faulty then Some Cup.Sink_protocol.Silent else None
  in
  let r =
    Cup.Sink_protocol.run_cfg
      ~cfg:{ Cup.Sink_protocol.default_run_config with seed }
      ~graph:g ~f ~fault_of ()
  in
  Pid.Set.iter
    (fun i ->
      if not (Pid.Set.mem i faulty) then
        match Pid.Map.find_opt i r.answers with
        | None -> Alcotest.failf "process %d stalled (regression!)" i
        | Some a ->
            Alcotest.(check bool)
              (Printf.sprintf "answer of %d legal" i)
              true
              (a.in_sink = Pid.Set.mem i sink && Pid.Set.subset a.view sink))
    (Digraph.vertices g)

(* Bug 2: PBFT replicas that decided in an early view froze, leaving
   stragglers in later views unable to assemble quorums. The triggering
   shape: enough pre-GST reordering that commits are seen asymmetrically
   around a view change. We re-run the E8 configuration that exposed
   it. *)
let test_pbft_decided_straggler () =
  let seed = 7 and f = 1 in
  let g, _ =
    Generators.random_byzantine_safe ~seed ~f ~sink_size:6 ~non_sink:6 ()
  in
  let faulty = Generators.random_faulty_set ~seed ~f g in
  let o =
    Bftcup.Protocol.run
      ~cfg:(Simkit.Run_config.with_seed seed Simkit.Run_config.default)
      ~graph:g ~f
      ~initial_value_of:(fun i -> Scp.Value.of_ints [ i ])
      ~faulty ()
  in
  Alcotest.(check bool) "all decided" true o.all_decided;
  Alcotest.(check bool) "agreement" true o.agreement

(* The monotone-view rule must not let a Byzantine sender shrink its
   recorded view: stale (smaller) reports are ignored. *)
let test_knowledge_monotone_views () =
  let k = Cup.Knowledge.create ~self:1 ~pd:(Pid.Set.of_list [ 2; 3 ]) ~f:0 in
  let sent = ref [] in
  let send dst m = sent := (dst, m) :: !sent in
  Cup.Knowledge.start k ~send;
  let big = Pid.Set.of_list [ 2; 3; 4 ] in
  let small = Pid.Set.of_list [ 2 ] in
  Cup.Knowledge.on_know k ~send ~src:2 big;
  Cup.Knowledge.on_know k ~send ~src:2 small;
  (* 4 was vouched once by 2 via [big]; with f = 0 one voucher
     suffices, and the later smaller report must not retract it *)
  Alcotest.(check bool) "4 stays known" true
    (Pid.Set.mem 4 (Cup.Knowledge.known k))

let suites =
  [
    ( "regressions",
      [
        Alcotest.test_case "knowledge non-FIFO stall (seed 198)" `Quick
          test_knowledge_reordering_seed198;
        Alcotest.test_case "pbft decided-straggler deadlock" `Quick
          test_pbft_decided_straggler;
        Alcotest.test_case "knowledge views monotone" `Quick
          test_knowledge_monotone_views;
      ] );
  ]
