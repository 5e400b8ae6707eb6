open Graphkit
open Fbqs

let set = Pid.Set.of_list

let test_domain () =
  let s = Slice.explicit [ set [ 1; 2 ]; set [ 2; 3 ] ] in
  Alcotest.(check bool) "explicit domain" true
    (Pid.Set.equal (Slice.domain s) (set [ 1; 2; 3 ]));
  let t = Slice.threshold ~members:(set [ 4; 5 ]) ~threshold:1 in
  Alcotest.(check bool) "threshold domain" true
    (Pid.Set.equal (Slice.domain t) (set [ 4; 5 ]));
  let none = Slice.threshold ~members:(set [ 4; 5 ]) ~threshold:3 in
  Alcotest.(check bool) "unsatisfiable threshold has empty domain" true
    (Pid.Set.is_empty (Slice.domain none))

let test_slice_count () =
  Alcotest.(check int) "C(5,2)" 10
    (Slice.slice_count (Slice.threshold ~members:(Pid.Set.of_range 1 5) ~threshold:2));
  Alcotest.(check int) "C(4,4)" 1
    (Slice.slice_count (Slice.threshold ~members:(Pid.Set.of_range 1 4) ~threshold:4));
  Alcotest.(check int) "C(4,5) = 0" 0
    (Slice.slice_count (Slice.threshold ~members:(Pid.Set.of_range 1 4) ~threshold:5));
  Alcotest.(check int) "explicit" 2
    (Slice.slice_count (Slice.explicit [ set [ 1 ]; set [ 2 ] ]))

let test_enumerate () =
  let slices =
    Slice.enumerate (Slice.threshold ~members:(set [ 1; 2; 3 ]) ~threshold:2)
  in
  Alcotest.(check int) "three 2-subsets" 3 (List.length slices);
  List.iter
    (fun s -> Alcotest.(check int) "each of size 2" 2 (Pid.Set.cardinal s))
    slices

let test_has_slice_within () =
  let s = Slice.threshold ~members:(set [ 1; 2; 3; 4 ]) ~threshold:3 in
  Alcotest.(check bool) "enough members inside" true
    (Slice.has_slice_within s (set [ 1; 2; 3; 9 ]));
  Alcotest.(check bool) "not enough" false
    (Slice.has_slice_within s (set [ 1; 2; 9 ]));
  Alcotest.(check bool) "unsatisfiable threshold" false
    (Slice.has_slice_within
       (Slice.threshold ~members:(set [ 1 ]) ~threshold:2)
       (set [ 1; 2; 3 ]))

let test_blocking () =
  let s = Slice.threshold ~members:(set [ 1; 2; 3; 4 ]) ~threshold:3 in
  (* A set blocking every 3-of-4 slice must leave fewer than 3 free. *)
  Alcotest.(check bool) "two removed blocks" true
    (Slice.all_slices_intersect s (set [ 1; 2 ]));
  Alcotest.(check bool) "one removed does not block" false
    (Slice.all_slices_intersect s (set [ 1 ]));
  Alcotest.(check bool) "avoiding complement" true
    (Slice.has_slice_avoiding s (set [ 1 ]));
  Alcotest.(check bool) "cannot avoid 2" false
    (Slice.has_slice_avoiding s (set [ 1; 2 ]))

let test_empty_slice_set () =
  let s = Slice.explicit [] in
  Alcotest.(check bool) "nothing within" false
    (Slice.has_slice_within s (set [ 1; 2 ]));
  Alcotest.(check bool) "vacuous intersect" true
    (Slice.all_slices_intersect s (set [ 1 ]));
  Alcotest.(check bool) "nothing avoids" false
    (Slice.has_slice_avoiding s (set [ 1 ]))

let test_negative_threshold () =
  Alcotest.check_raises "threshold -1"
    (Invalid_argument "Slice.threshold: negative threshold") (fun () ->
      ignore (Slice.threshold ~members:(set [ 1; 2 ]) ~threshold:(-1)))

(* Symbolic/explicit equivalence: the threshold form must agree with
   its own enumeration on every operation. *)
let arb_threshold_case =
  QCheck.make
    ~print:(fun ((members, threshold), probe) ->
      Format.asprintf "members=%a t=%d probe=%a" Pid.Set.pp
        (Pid.Set.of_list members) threshold Pid.Set.pp (Pid.Set.of_list probe))
    QCheck.Gen.(
      let* members = list_size (int_bound 6) (int_bound 9) in
      let* threshold = int_bound 7 in
      let* probe = list_size (int_bound 6) (int_bound 9) in
      return ((members, threshold), probe))

let equiv_prop name op =
  QCheck.Test.make ~count:500 ~name arb_threshold_case
    (fun ((members, threshold), probe) ->
      let members = Pid.Set.of_list members in
      let probe = Pid.Set.of_list probe in
      let symbolic = Slice.threshold ~members ~threshold in
      let explicit = Slice.explicit (Slice.enumerate symbolic) in
      op symbolic probe = op explicit probe)

let prop_within_equiv =
  equiv_prop "threshold ≡ explicit: has_slice_within" Slice.has_slice_within

let prop_intersect_equiv =
  equiv_prop "threshold ≡ explicit: all_slices_intersect"
    Slice.all_slices_intersect

let prop_avoiding_equiv =
  equiv_prop "threshold ≡ explicit: has_slice_avoiding"
    Slice.has_slice_avoiding

let prop_count_matches_enumeration =
  QCheck.Test.make ~count:300 ~name:"slice_count matches enumeration"
    QCheck.(pair (list_of_size (QCheck.Gen.int_bound 6) (int_bound 9)) (int_bound 7))
    (fun (members, threshold) ->
      let s = Slice.threshold ~members:(Pid.Set.of_list members) ~threshold in
      Slice.slice_count s = List.length (Slice.enumerate s))

let suites =
  [
    ( "slice",
      [
        Alcotest.test_case "domain" `Quick test_domain;
        Alcotest.test_case "slice_count" `Quick test_slice_count;
        Alcotest.test_case "enumerate" `Quick test_enumerate;
        Alcotest.test_case "has_slice_within" `Quick test_has_slice_within;
        Alcotest.test_case "blocking arithmetic" `Quick test_blocking;
        Alcotest.test_case "empty slice set" `Quick test_empty_slice_set;
        Alcotest.test_case "negative threshold refused" `Quick
          test_negative_threshold;
        QCheck_alcotest.to_alcotest prop_within_equiv;
        QCheck_alcotest.to_alcotest prop_intersect_equiv;
        QCheck_alcotest.to_alcotest prop_avoiding_equiv;
        QCheck_alcotest.to_alcotest prop_count_matches_enumeration;
      ] );
  ]
