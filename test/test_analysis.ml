open Graphkit
open Fbqs

let set = Pid.Set.of_list
let pid_set = Alcotest.testable Pid.Set.pp Pid.Set.equal

let pbft n t =
  let members = Pid.Set.of_range 1 n in
  Quorum.system_of_list
    (List.map
       (fun i -> (i, Slice.threshold ~members ~threshold:t))
       (Pid.Set.elements members))

let test_blocking_cascade_threshold () =
  let c = Quorum.Compiled.compile (pbft 4 3) in
  (* one node down: nobody else halts (3 of 4 still available) *)
  Alcotest.check pid_set "one down, no cascade" (set [ 1 ])
    (Analysis.blocking_cascade c ~down:(set [ 1 ]));
  (* two down: each survivor's every 3-slice hits a down node -> all halt *)
  Alcotest.check pid_set "two down halts everyone" (Pid.Set.of_range 1 4)
    (Analysis.blocking_cascade c ~down:(set [ 1; 2 ]))

let test_blocking_cascade_chain () =
  (* 1 trusts only 2, 2 trusts only 3: 3 down cascades through 2 to 1 *)
  let sys =
    Quorum.system_of_list
      [
        (1, Slice.explicit [ set [ 2 ] ]);
        (2, Slice.explicit [ set [ 3 ] ]);
        (3, Slice.explicit [ set [ 3 ] ]);
      ]
  in
  Alcotest.check pid_set "chain cascade" (set [ 1; 2; 3 ])
    (Analysis.blocking_cascade (Quorum.Compiled.compile sys) ~down:(set [ 3 ]))

let test_min_blocking_sets () =
  let sys = pbft 4 3 in
  let blocking = Analysis.min_blocking_sets sys 1 in
  (* blocking a 3-of-4 node = any 2 of the 4 members: C(4,2) = 6 *)
  Alcotest.(check int) "six minimal blocking sets" 6 (List.length blocking);
  List.iter
    (fun b -> Alcotest.(check int) "each of size 2" 2 (Pid.Set.cardinal b))
    blocking;
  Alcotest.(check (list (list int))) "sliceless node unblockable" []
    (List.map Pid.Set.elements
       (Analysis.min_blocking_sets
          (Quorum.system_of_list [ (1, Slice.explicit []) ])
          1))

let test_levels_pbft () =
  let sys = pbft 4 3 in
  (* liveness: killing any 2 halts everything; 1 is survivable *)
  Alcotest.(check int) "liveness level" 2 (Analysis.liveness_level sys);
  (* safety: deleting 2 leaves 2-of... threshold 1 over 2 survivors ->
     disjoint singleton quorums *)
  Alcotest.(check int) "safety level" 2 (Analysis.safety_level sys)

let test_splitting_sets_pbft () =
  let sys = pbft 4 3 in
  let splits =
    Enum.minimal_splitting_sets ~universe:(Quorum.participants sys)
      (Enum.prepare sys)
  in
  Alcotest.(check bool) "exist" true (List.length splits > 0);
  List.iter
    (fun b -> Alcotest.(check int) "minimal splits of size 2" 2 (Pid.Set.cardinal b))
    splits

let test_top_tier () =
  let sys = pbft 4 3 in
  Alcotest.check pid_set "everyone matters in a flat system"
    (Pid.Set.of_range 1 4)
    (Enum.top_tier (Enum.prepare sys));
  (* follower node 5 trusting the quartet is not top tier *)
  let with_follower =
    Pid.Map.add 5
      (Slice.threshold ~members:(Pid.Set.of_range 1 4) ~threshold:3)
      sys
  in
  Alcotest.check pid_set "follower excluded" (Pid.Set.of_range 1 4)
    (Enum.top_tier (Enum.prepare with_follower))

let test_fig1_analysis () =
  let sys =
    Quorum.system_of_list
      (List.map
         (fun (i, slices) -> (i, Slice.explicit slices))
         Builtin.fig1_slices)
  in
  (* the core {5,6,7} is the engine of the system *)
  Alcotest.check pid_set "fig1 top tier" (set [ 5; 6; 7 ])
    (Enum.top_tier (Enum.prepare sys));
  (* killing 6 blocks 4 ({5,6},{6,8} both hit) and 5 and 7... *)
  let cascade =
    Analysis.blocking_cascade (Quorum.Compiled.compile sys) ~down:(set [ 6 ])
  in
  Alcotest.(check bool) "6 down halts 4" true (Pid.Set.mem 4 cascade)

let test_algorithm2_levels () =
  (* Algorithm 2 slices on fig2, f = 1: the paper's guarantees say both
     safety and liveness survive any single failure. *)
  let sys = Cup.Slice_builder.system_via_oracle ~f:1 Builtin.fig2 in
  Alcotest.(check bool) "liveness survives 1 fault" true
    (Analysis.liveness_level sys >= 2);
  Alcotest.(check bool) "safety survives 1 fault" true
    (Analysis.safety_level sys >= 2)

(* Random systems over pids up to 40: explicit slices (possibly
   [Explicit []] or holding an empty slice), thresholds from 0 to above
   the member count (satisfiable and not), and absent pids, which may
   also appear in slices and in [down]. *)
let gen_cascade_query =
  QCheck.Gen.(
    let* pids = list_size (int_range 1 12) (int_bound 40) in
    let pool = List.sort_uniq Int.compare pids in
    let any_pid = oneof [ oneofl pool; int_bound 40 ] in
    let subset =
      let* l = list_size (int_bound 4) any_pid in
      return (Pid.Set.of_list l)
    in
    let* assoc =
      flatten_l
        (List.map
           (fun i ->
             let* kind = int_bound 2 in
             match kind with
             | 0 ->
                 let* slices = list_size (int_bound 3) subset in
                 return (Some (i, Slice.explicit slices))
             | 1 ->
                 let* members = subset in
                 let* threshold =
                   int_range 0 (Pid.Set.cardinal members + 1)
                 in
                 return (Some (i, Slice.threshold ~members ~threshold))
             | _ -> return None)
           pool)
    in
    let* down = list_size (int_bound 4) any_pid in
    return
      ( Quorum.system_of_list (List.filter_map Fun.id assoc),
        Pid.Set.of_list down ))

let prop_cascade_matches_oracle =
  QCheck.Test.make ~count:500
    ~name:"blocking_cascade = tree-set cascade over Oracle.Quorum.is_v_blocking"
    (QCheck.make
       ~print:(fun (sys, down) ->
         Format.asprintf "system=%a down=%a" (Pid.Map.pp Slice.pp) sys
           Pid.Set.pp down)
       gen_cascade_query)
    (fun (sys, down) ->
      Pid.Set.equal
        (Analysis.blocking_cascade (Quorum.Compiled.compile sys) ~down)
        (Oracle.Analysis.blocking_cascade sys ~down))

let suites =
  [
    ( "analysis",
      [
        Alcotest.test_case "blocking cascade (threshold)" `Quick
          test_blocking_cascade_threshold;
        Alcotest.test_case "blocking cascade (chain)" `Quick
          test_blocking_cascade_chain;
        Alcotest.test_case "min blocking sets" `Quick test_min_blocking_sets;
        Alcotest.test_case "liveness/safety levels" `Quick test_levels_pbft;
        Alcotest.test_case "splitting sets" `Quick test_splitting_sets_pbft;
        Alcotest.test_case "top tier" `Quick test_top_tier;
        Alcotest.test_case "fig1 analysis" `Quick test_fig1_analysis;
        Alcotest.test_case "Algorithm 2 slices levels" `Quick
          test_algorithm2_levels;
        QCheck_alcotest.to_alcotest prop_cascade_matches_oracle;
      ] );
  ]
