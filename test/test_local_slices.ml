open Graphkit
open Cup

let test_lemma1_slices_within_pd () =
  (* Lemma 1: every locally defined slice is a subset of PD_i. *)
  let pd = Participant_detector.of_graph ~f:1 Builtin.fig2 in
  Pid.Set.iter
    (fun i ->
      List.iter
        (fun rule ->
          let slice_set = rule pd i in
          List.iter
            (fun s ->
              Alcotest.(check bool)
                (Format.asprintf "slice %a of %d within PD" Pid.Set.pp s i)
                true
                (Pid.Set.subset s (Participant_detector.query pd i)))
            (Fbqs.Slice.enumerate slice_set))
        [ Local_slices.all_but_one; Local_slices.drop_f ])
    (Participant_detector.participants pd)

let test_lemma2_slice_avoiding_any_faulty_candidate () =
  (* Lemma 2: for every candidate faulty set B of size <= f, some slice
     avoids B entirely. *)
  let f = 1 in
  let pd = Participant_detector.of_graph ~f Builtin.fig2 in
  Pid.Set.iter
    (fun i ->
      let slices = Local_slices.all_but_one pd i in
      Pid.Set.iter
        (fun b ->
          Alcotest.(check bool)
            (Printf.sprintf "process %d avoids {%d}" i b)
            true
            (Fbqs.Slice.has_slice_avoiding slices (Pid.Set.singleton b)))
        (Participant_detector.query pd i))
    (Participant_detector.participants pd)

let test_theorem2_counterexample () =
  (* Theorem 2's proof on Fig. 2: with the all-but-one rule, both
     {5,6,7} and {1,2,3,4} are quorums, and they are disjoint. *)
  let pd = Participant_detector.of_graph ~f:1 Builtin.fig2 in
  let sys = Local_slices.system ~rule:Local_slices.all_but_one pd in
  let c = Fbqs.Quorum.Compiled.compile sys in
  Alcotest.(check bool) "non-sink quorum" true
    (Fbqs.Quorum.Compiled.is_quorum c Builtin.fig2_quorum_nonsink);
  Alcotest.(check bool) "sink quorum" true
    (Fbqs.Quorum.Compiled.is_quorum c Builtin.fig2_quorum_sinkside);
  Alcotest.(check bool) "disjoint" true
    (Pid.Set.is_empty
       (Pid.Set.inter Builtin.fig2_quorum_nonsink
          Builtin.fig2_quorum_sinkside))

let test_theorem2_violation_found_automatically () =
  let pd = Participant_detector.of_graph ~f:1 Builtin.fig2 in
  let sys = Local_slices.system ~rule:Local_slices.all_but_one pd in
  let all = Digraph.vertices Builtin.fig2 in
  match Fbqs.Intertwine.violating_pair sys (Threshold 1) all with
  | Some (_, qi, _, qj) ->
      Alcotest.(check bool) "witness intersection <= f" true
        (Pid.Set.cardinal (Pid.Set.inter qi qj) <= 1)
  | None -> Alcotest.fail "expected an intersection violation on fig2"

let prop_lemma2_on_random_graphs =
  QCheck.Test.make ~count:30
    ~name:"drop_f satisfies Lemma 2 on random k-OSR graphs"
    QCheck.(pair (int_bound 500) (int_range 1 2))
    (fun (seed, f) ->
      let g =
        Generators.random_k_osr ~seed ~sink_size:((2 * f) + 2) ~non_sink:3
          ~k:((2 * f) + 1) ()
      in
      let pd = Participant_detector.of_graph ~f g in
      Pid.Set.for_all
        (fun i ->
          let slices = Local_slices.drop_f pd i in
          let pd_i = Participant_detector.query pd i in
          (* check all candidate faulty subsets of size exactly f drawn
             from PD_i *)
          let candidates =
            if f = 1 then List.map Pid.Set.singleton (Pid.Set.elements pd_i)
            else
              List.concat_map
                (fun a ->
                  List.filter_map
                    (fun b ->
                      if a < b then Some (Pid.Set.of_list [ a; b ]) else None)
                    (Pid.Set.elements pd_i))
                (Pid.Set.elements pd_i)
          in
          List.for_all
            (fun b -> Fbqs.Slice.has_slice_avoiding slices b)
            candidates)
        (Participant_detector.participants pd))

let suites =
  [
    ( "local_slices",
      [
        Alcotest.test_case "Lemma 1: slices within PD" `Quick
          test_lemma1_slices_within_pd;
        Alcotest.test_case "Lemma 2: slice avoiding faulty candidates" `Quick
          test_lemma2_slice_avoiding_any_faulty_candidate;
        Alcotest.test_case "Theorem 2: fig2 counterexample" `Quick
          test_theorem2_counterexample;
        Alcotest.test_case "Theorem 2: violation auto-detected" `Quick
          test_theorem2_violation_found_automatically;
        QCheck_alcotest.to_alcotest prop_lemma2_on_random_graphs;
      ] );
  ]
