open Graphkit
open Fbqs

let set = Pid.Set.of_list
let pid_set = Alcotest.testable Pid.Set.pp Pid.Set.equal

(* The kernel's queries, each on a handle compiled for it. *)
let is_quorum sys q = Quorum.Compiled.is_quorum (Quorum.Compiled.compile sys) q
let is_quorum_of sys i q = Pid.Set.mem i q && is_quorum sys q

let greatest_quorum_within sys s =
  Quorum.Compiled.greatest_quorum_within (Quorum.Compiled.compile sys) s

let is_v_blocking sys i b =
  Quorum.Compiled.is_v_blocking_d (Quorum.Compiled.compile sys) i
    (Pid.Dense_set.of_set b)

(* The Section III-D running example on the Fig. 1 graph. *)
let fig1_system =
  Quorum.system_of_list
    (List.map
       (fun (i, slices) -> (i, Slice.explicit slices))
       Graphkit.Builtin.fig1_slices)

let test_fig1_quorums_from_paper () =
  (* "1's quorum is the area with horizontal lines": {1,2,4,5,6,7}. *)
  Alcotest.(check bool) "quorum of 1" true
    (is_quorum_of fig1_system 1 (set [ 1; 2; 4; 5; 6; 7 ]));
  (* "3's quorum is the area with vertical lines": {3,5,6,7}. *)
  Alcotest.(check bool) "quorum of 3" true
    (is_quorum_of fig1_system 3 (set [ 3; 5; 6; 7 ]));
  (* "Q_5 = Q_6 = Q_7 = {5,6,7} — the area with squares". *)
  Alcotest.(check bool) "core quorum" true
    (is_quorum fig1_system (set [ 5; 6; 7 ]));
  List.iter
    (fun i ->
      Alcotest.(check bool)
        (Printf.sprintf "{5,6,7} is a quorum of %d" i)
        true
        (is_quorum_of fig1_system i (set [ 5; 6; 7 ])))
    [ 5; 6; 7 ]

let test_fig1_non_quorums () =
  (* 2 requires 4, so a set with 2 but without 4 is no quorum. *)
  Alcotest.(check bool) "missing dependency" false
    (is_quorum fig1_system (set [ 1; 2; 5; 6; 7 ]));
  (* 8 declared no slices, so any set containing 8 fails Algorithm 1. *)
  Alcotest.(check bool) "byzantine member breaks the check" false
    (is_quorum fig1_system (set [ 5; 6; 7; 8 ]));
  Alcotest.(check bool) "empty set" false
    (is_quorum fig1_system Pid.Set.empty)

let test_greatest_quorum () =
  let w = Pid.Set.of_range 1 7 in
  Alcotest.check pid_set "W itself is the greatest quorum in W" w
    (greatest_quorum_within fig1_system w);
  (* Inside {1,2,5,6,7}: 1 needs {2,5}, 2 needs 4 (absent) so 2 falls,
     then 1 falls; {5,6,7} survives. *)
  Alcotest.check pid_set "pruning cascade"
    (set [ 5; 6; 7 ])
    (greatest_quorum_within fig1_system (set [ 1; 2; 5; 6; 7 ]));
  Alcotest.check pid_set "no quorum inside {1,2}" Pid.Set.empty
    (greatest_quorum_within fig1_system (set [ 1; 2 ]))

let test_minimal_quorums_of () =
  let minimal = Quorum.minimal_quorums_of fig1_system 3 in
  Alcotest.(check int) "exactly one minimal quorum of 3" 1
    (List.length minimal);
  Alcotest.check pid_set "it is {3,5,6,7}" (set [ 3; 5; 6; 7 ])
    (List.hd minimal);
  let minimal1 = Quorum.minimal_quorums_of fig1_system 1 in
  Alcotest.(check int) "exactly one minimal quorum of 1" 1
    (List.length minimal1);
  Alcotest.check pid_set "it is {1,2,4,5,6,7}" (set [ 1; 2; 4; 5; 6; 7 ])
    (List.hd minimal1)

let test_v_blocking () =
  (* 4's slices are {5,6} and {6,8}: {6} meets both. *)
  Alcotest.(check bool) "{6} blocks 4" true
    (is_v_blocking fig1_system 4 (set [ 6 ]));
  Alcotest.(check bool) "{5} does not block 4" false
    (is_v_blocking fig1_system 4 (set [ 5 ]));
  Alcotest.(check bool) "{5,8} blocks 4" true
    (is_v_blocking fig1_system 4 (set [ 5; 8 ]));
  Alcotest.(check bool) "nothing blocks a sliceless process" false
    (is_v_blocking fig1_system 8 (set [ 5; 6; 7 ]))

let test_threshold_system () =
  (* A classic 3f+1 threshold system is an FBQS whose quorums are the
     sets of >= 2f+1 members. *)
  let n = 4 and f = 1 in
  let members = Pid.Set.of_range 1 n in
  let sys =
    Quorum.system_of_list
      (List.map
         (fun i -> (i, Slice.threshold ~members ~threshold:((2 * f) + 1)))
         (Pid.Set.elements members))
  in
  Alcotest.(check bool) "any 3 of 4" true (is_quorum sys (set [ 1; 2; 4 ]));
  Alcotest.(check bool) "2 of 4 is not" false (is_quorum sys (set [ 1; 2 ]));
  Alcotest.(check int) "four minimal quorums" 4
    (List.length (Quorum.minimal_quorums sys))

(* Properties on random explicit systems: quorums are closed under
   union, and the greatest quorum within a universe is the union of all
   quorums inside it. *)
let arb_system =
  QCheck.make
    ~print:(fun sys ->
      Format.asprintf "%a"
        (Pid.Map.pp Slice.pp)
        sys)
    QCheck.Gen.(
      let n = 5 in
      let* per_process =
        list_repeat n
          (list_size (int_range 1 3)
             (list_size (int_range 1 3) (int_range 1 n)))
      in
      return
        (Quorum.system_of_list
           (List.mapi
              (fun i slices ->
                ( i + 1,
                  Slice.explicit (List.map Pid.Set.of_list slices) ))
              per_process)))

let prop_union_of_quorums =
  QCheck.Test.make ~count:200 ~name:"union of quorums is a quorum" arb_system
    (fun sys ->
      let quorums = Quorum.enum_quorums sys in
      List.for_all
        (fun q1 ->
          List.for_all
            (fun q2 -> is_quorum sys (Pid.Set.union q1 q2))
            quorums)
        (match quorums with [] -> [] | q :: _ -> [ q ]))

let prop_greatest_is_quorum_or_empty =
  QCheck.Test.make ~count:200 ~name:"greatest quorum is a quorum or empty"
    arb_system (fun sys ->
      let u = greatest_quorum_within sys (Pid.Set.of_range 1 5) in
      Pid.Set.is_empty u || is_quorum sys u)

let prop_greatest_contains_all_quorums =
  QCheck.Test.make ~count:200 ~name:"greatest quorum contains every quorum"
    arb_system (fun sys ->
      let universe = Pid.Set.of_range 1 5 in
      let u = greatest_quorum_within sys universe in
      List.for_all
        (fun q -> Pid.Set.subset q u)
        (Quorum.enum_quorums sys))

(* The one subset enumerator of the small-system analyses: E1 and E3
   print lists in its order. *)
let test_fold_subsets () =
  let subsets =
    List.rev (Pid.Set.fold_subsets List.cons (set [ 3; 7; 9 ]) [])
  in
  Alcotest.(check (list (list int)))
    "subset k holds the b-th smallest element iff bit b of k is set"
    [ []; [ 3 ]; [ 7 ]; [ 3; 7 ]; [ 9 ]; [ 3; 9 ]; [ 7; 9 ]; [ 3; 7; 9 ] ]
    (List.map Pid.Set.elements subsets);
  let count s = Pid.Set.fold_subsets (fun _ n -> n + 1) s 0 in
  Alcotest.(check int) "the empty set has one subset" 1 (count Pid.Set.empty);
  Alcotest.(check int) "2^12 subsets of 12 elements" 4096
    (count (Pid.Set.of_range 1 12));
  Alcotest.check_raises "more than 20 elements"
    (Invalid_argument "Pid.Set.fold_subsets: more than 20 elements")
    (fun () -> ignore (count (Pid.Set.of_range 1 21)))

let suites =
  [
    ( "quorum",
      [
        Alcotest.test_case "fig1 quorums from the paper" `Quick
          test_fig1_quorums_from_paper;
        Alcotest.test_case "fig1 non-quorums" `Quick test_fig1_non_quorums;
        Alcotest.test_case "greatest quorum" `Quick test_greatest_quorum;
        Alcotest.test_case "minimal quorums" `Quick test_minimal_quorums_of;
        Alcotest.test_case "v-blocking" `Quick test_v_blocking;
        Alcotest.test_case "threshold (PBFT-like) system" `Quick
          test_threshold_system;
        QCheck_alcotest.to_alcotest prop_union_of_quorums;
        QCheck_alcotest.to_alcotest prop_greatest_is_quorum_or_empty;
        QCheck_alcotest.to_alcotest prop_greatest_contains_all_quorums;
        Alcotest.test_case "Pid.Set.fold_subsets order, count and guard"
          `Quick test_fold_subsets;
      ] );
  ]
