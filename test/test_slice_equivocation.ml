open Graphkit
open Scp

let v = Value.of_ints

let threshold_slices n t =
  Fbqs.Slice.threshold ~members:(Pid.Set.of_range 1 n) ~threshold:t

let system n t =
  Fbqs.Quorum.system_of_list
    (List.init n (fun i -> (i + 1, threshold_slices n t)))

let run_scp ?(seed = 0) ~system ~peers_of ~initial_value_of ~fault_of () =
  let d = Runner.default_cfg in
  Runner.run_cfg
    ~cfg:{ d with run = { d.run with seed } }
    ~system ~peers_of ~initial_value_of ~fault_of ()

let test_slices_learned_from_envelopes () =
  (* Nodes start knowing only their own declaration; consensus requires
     learning everyone else's from the envelopes. If learning were
     broken nothing could ever be confirmed. *)
  let o =
    run_scp ~system:(system 4 3)
      ~peers_of:(fun _ -> Pid.Set.of_range 1 4)
      ~initial_value_of:(fun i -> v [ i ])
      ~fault_of:(fun _ -> None)
      ()
  in
  Alcotest.(check bool) "consensus via learned slices" true
    (o.all_decided && o.agreement && o.validity)

let test_slice_equivocator_harmless_to_correct_quorums () =
  (* Node 5 declares two different slice sets to the two halves of the
     network while nominating its value. The four correct nodes' own
     slices (3-of-{1..4}) do not depend on 5, so consensus among them
     is unaffected; 5's value may or may not be included, but safety
     and liveness hold. *)
  let correct_members = Pid.Set.of_range 1 4 in
  let correct_slices =
    Fbqs.Slice.threshold ~members:correct_members ~threshold:3
  in
  let system =
    Fbqs.Quorum.system_of_list
      ((5, threshold_slices 5 4)
      :: List.init 4 (fun i -> (i + 1, correct_slices)))
  in
  let fault_of i =
    if i = 5 then
      Some
        (Runner.Slice_equivocator
           {
             split = (fun j -> j mod 2 = 0);
             slices_a = Fbqs.Slice.explicit [ Pid.Set.of_list [ 1; 2 ] ];
             slices_b = Fbqs.Slice.explicit [ Pid.Set.of_list [ 3; 4 ] ];
             value = v [ 50 ];
           })
    else None
  in
  let o =
    run_scp ~system
      ~peers_of:(fun _ -> Pid.Set.of_range 1 5)
      ~initial_value_of:(fun i -> v [ i ])
      ~fault_of ()
  in
  Alcotest.(check bool) "all correct decided" true o.all_decided;
  Alcotest.(check bool) "agreement" true o.agreement;
  Alcotest.(check bool) "validity" true o.validity

let test_first_declaration_pinned () =
  (* Directly exercise the pinning rule: a node that hears two
     different declarations from the same origin keeps the first. We
     observe this indirectly — an equivocator cannot make one correct
     node treat it as trusting {1,2} and later {3,4}: behaviourally the
     run stays deterministic and safe (determinism implies a stable
     pin). *)
  let run () =
    let system = system 4 3 in
    run_scp ~seed:5 ~system
      ~peers_of:(fun _ -> Pid.Set.of_range 1 4)
      ~initial_value_of:(fun i -> v [ i ])
      ~fault_of:(fun _ -> None)
      ()
  in
  let o1 = run () and o2 = run () in
  Alcotest.(check int) "deterministic with slice learning"
    o1.stats.messages_sent o2.stats.messages_sent

let prop_equivocator_never_breaks_agreement =
  QCheck.Test.make ~count:10
    ~name:"slice equivocator never breaks correct-node agreement"
    QCheck.(int_bound 500)
    (fun seed ->
      let correct_members = Pid.Set.of_range 1 4 in
      let correct_slices =
        Fbqs.Slice.threshold ~members:correct_members ~threshold:3
      in
      let system =
        Fbqs.Quorum.system_of_list
          ((5, threshold_slices 5 4)
          :: List.init 4 (fun i -> (i + 1, correct_slices)))
      in
      let fault_of i =
        if i = 5 then
          Some
            (Runner.Slice_equivocator
               {
                 split = (fun j -> j <= 2);
                 slices_a = threshold_slices 5 1;
                 slices_b = threshold_slices 5 5;
                 value = v [ 50 + seed ];
               })
        else None
      in
      let o =
        run_scp ~seed ~system
          ~peers_of:(fun _ -> Pid.Set.of_range 1 5)
          ~initial_value_of:(fun i -> v [ i ])
          ~fault_of ()
      in
      o.all_decided && o.agreement)

let suites =
  [
    ( "slice_equivocation",
      [
        Alcotest.test_case "slices learned from envelopes" `Quick
          test_slices_learned_from_envelopes;
        Alcotest.test_case "equivocator harmless to correct quorums" `Quick
          test_slice_equivocator_harmless_to_correct_quorums;
        Alcotest.test_case "first declaration pinned" `Quick
          test_first_declaration_pinned;
        QCheck_alcotest.to_alcotest prop_equivocator_never_breaks_agreement;
      ] );
  ]
