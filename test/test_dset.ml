open Graphkit
open Fbqs

let set = Pid.Set.of_list
let pid_set = Alcotest.testable Pid.Set.pp Pid.Set.equal

(* Classic 4-node 3f+1 system: any single node is dispensable. *)
let pbft4 =
  let members = Pid.Set.of_range 1 4 in
  Quorum.system_of_list
    (List.map
       (fun i -> (i, Slice.threshold ~members ~threshold:3))
       (Pid.Set.elements members))

let test_delete_threshold () =
  let deleted = Oracle.Quorum.delete pbft4 (set [ 4 ]) in
  (match Quorum.slices_of deleted 1 with
  | Slice.Threshold { members; threshold } ->
      Alcotest.check pid_set "members shrink" (set [ 1; 2; 3 ]) members;
      Alcotest.(check int) "threshold reduced" 2 threshold
  | Slice.Explicit _ -> Alcotest.fail "expected threshold");
  Alcotest.(check bool) "deleted node gone" true
    (not (Pid.Set.mem 4 (Quorum.participants deleted)))

let test_delete_explicit () =
  let sys =
    Quorum.system_of_list
      [
        (1, Slice.explicit [ set [ 2; 3 ]; set [ 3; 4 ] ]);
        (2, Slice.explicit [ set [ 1 ] ]);
        (3, Slice.explicit [ set [ 1 ] ]);
        (4, Slice.explicit [ set [ 1 ] ]);
      ]
  in
  let deleted = Oracle.Quorum.delete sys (set [ 3 ]) in
  match Quorum.slices_of deleted 1 with
  | Slice.Explicit [ a; b ] ->
      Alcotest.check pid_set "first slice" (set [ 2 ]) a;
      Alcotest.check pid_set "second slice" (set [ 4 ]) b
  | _ -> Alcotest.fail "expected two explicit slices"

let test_pbft4_dsets () =
  Alcotest.(check bool) "empty set is a DSet" true
    (Dset.is_dset pbft4 Pid.Set.empty);
  Alcotest.(check bool) "single node is a DSet" true
    (Dset.is_dset pbft4 (set [ 2 ]));
  (* Deleting two nodes of a 3-of-4 system leaves threshold 1 over 2
     members: {1} and {2} are disjoint quorums -> intersection fails. *)
  Alcotest.(check bool) "two nodes are not dispensable" false
    (Dset.is_dset pbft4 (set [ 3; 4 ]));
  let minimal = Dset.minimal_dsets pbft4 in
  Alcotest.(check int) "unique minimal DSet" 1 (List.length minimal);
  Alcotest.check pid_set "it is the empty set" Pid.Set.empty
    (List.hd minimal)

let test_intact_pbft4 () =
  Alcotest.check pid_set "all intact with one fault" (set [ 1; 2; 4 ])
    (Dset.intact pbft4 ~faulty:(set [ 3 ]));
  Alcotest.check pid_set "befouled complement" (set [ 3 ])
    (Dset.befouled pbft4 ~faulty:(set [ 3 ]));
  Alcotest.(check bool) "nobody intact with two faults" true
    (Pid.Set.is_empty (Dset.intact pbft4 ~faulty:(set [ 3; 4 ])))

let fig1_system =
  Quorum.system_of_list
    (List.map
       (fun (i, slices) -> (i, Slice.explicit slices))
       Builtin.fig1_slices)

let test_fig1_dset_cross_check () =
  (* The Section III-D example: F = {8}. {8} should be dispensable (the
     paper's consensus-cluster analysis says all of {1..7} can solve
     consensus), and every correct process intact. *)
  Alcotest.(check bool) "{8} is a DSet" true
    (Dset.is_dset fig1_system (set [ 8 ]));
  let intact = Dset.intact fig1_system ~faulty:(set [ 8 ]) in
  Alcotest.(check bool) "all of {1..7} intact" true
    (Pid.Set.subset (Pid.Set.of_range 1 7) intact)

let test_algorithm2_slices_dset () =
  (* On fig2 with Algorithm 2 slices, any single process should be
     dispensable (f = 1). *)
  let sys = Cup.Slice_builder.system_via_oracle ~f:1 Builtin.fig2 in
  Pid.Set.iter
    (fun v ->
      Alcotest.(check bool)
        (Printf.sprintf "{%d} dispensable" v)
        true
        (Dset.is_dset sys (Pid.Set.singleton v)))
    (Digraph.vertices Builtin.fig2)

let prop_dset_monotone_availability =
  (* If b is a DSet then availability holds for b; and the full
     participant set is always "available despite" itself (vacuous). *)
  QCheck.Test.make ~count:100 ~name:"vacuous DSet facts"
    QCheck.(int_range 1 5)
    (fun n ->
      let members = Pid.Set.of_range 1 n in
      let sys =
        Quorum.system_of_list
          (List.map
             (fun i ->
               (i, Slice.threshold ~members ~threshold:((n / 2) + 1)))
             (Pid.Set.elements members))
      in
      Dset.quorum_availability_despite sys members
      && Dset.is_dset sys Pid.Set.empty)

let prop_intersection_matches_enum =
  (* The pruned minimal-quorum path must agree with the brute-force
     definition: enumerate every quorum of the deleted system and check
     that all pairs intersect. *)
  QCheck.Test.make ~count:100 ~name:"pruned intersection = brute force"
    QCheck.(triple (int_range 1 6) (int_range 1 6) (int_range 0 63))
    (fun (n, t, bmask) ->
      let members = Pid.Set.of_range 1 n in
      let sys =
        Quorum.system_of_list
          (List.map
             (fun i -> (i, Slice.threshold ~members ~threshold:(min t n)))
             (Pid.Set.elements members))
      in
      let b =
        Pid.Set.filter (fun i -> bmask land (1 lsl (i - 1)) <> 0) members
      in
      let brute =
        let quorums = Quorum.enum_quorums (Oracle.Quorum.delete sys b) in
        List.for_all
          (fun q1 ->
            List.for_all
              (fun q2 -> not (Pid.Set.is_empty (Pid.Set.inter q1 q2)))
              quorums)
          quorums
      in
      Enum.quorum_intersection_despite sys b = brute)

let suites =
  [
    ( "dset",
      [
        Alcotest.test_case "delete on threshold slices" `Quick
          test_delete_threshold;
        Alcotest.test_case "delete on explicit slices" `Quick
          test_delete_explicit;
        Alcotest.test_case "pbft4 DSets" `Quick test_pbft4_dsets;
        Alcotest.test_case "pbft4 intact nodes" `Quick test_intact_pbft4;
        Alcotest.test_case "fig1 cross-check with clusters" `Quick
          test_fig1_dset_cross_check;
        Alcotest.test_case "Algorithm 2 slices: singletons dispensable"
          `Quick test_algorithm2_slices_dset;
        QCheck_alcotest.to_alcotest prop_dset_monotone_availability;
        QCheck_alcotest.to_alcotest prop_intersection_matches_enum;
      ] );
  ]
