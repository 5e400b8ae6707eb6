open Scp

let v = Value.of_ints

let test_value_ops () =
  Alcotest.(check bool) "combine unions" true
    (Value.equal (v [ 1; 2; 3 ]) (Value.combine [ v [ 1 ]; v [ 2; 3 ] ]));
  Alcotest.(check bool) "combine empty" true
    (Value.equal Value.empty (Value.combine []));
  Alcotest.(check bool) "order by cardinality first" true
    (Value.compare (v [ 9 ]) (v [ 1; 2 ]) < 0);
  Alcotest.(check bool) "lexicographic tie-break" true
    (Value.compare (v [ 1; 3 ]) (v [ 1; 4 ]) <> 0)

let test_ballot_order () =
  let b1 = Ballot.make 1 (v [ 1 ]) in
  let b2 = Ballot.make 2 (v [ 1 ]) in
  let b1' = Ballot.make 1 (v [ 2 ]) in
  Alcotest.(check bool) "counter dominates" true (Ballot.compare b1 b2 < 0);
  Alcotest.(check bool) "compatible same value" true (Ballot.compatible b1 b2);
  Alcotest.(check bool) "incompatible different value" false
    (Ballot.compatible b1 b1');
  Alcotest.(check bool) "abort relation" true
    (Ballot.less_and_incompatible b1 (Ballot.make 2 (v [ 2 ])));
  Alcotest.(check bool) "no abort when compatible" false
    (Ballot.less_and_incompatible b1 b2)

let test_statement_implication () =
  let b = Ballot.make 3 (v [ 7 ]) in
  match Statement.implied (Statement.Commit b) with
  | [ Statement.Prepare b' ] ->
      Alcotest.(check bool) "commit implies prepare of same ballot" true
        (Ballot.equal b b')
  | _ -> Alcotest.fail "commit must imply exactly its prepare"

(* Federated voting over a 3-of-4 threshold system. *)
let threshold_system n t =
  let members = Graphkit.Pid.Set.of_range 1 n in
  Fbqs.Quorum.system_of_list
    (List.map
       (fun i -> (i, Fbqs.Slice.threshold ~members ~threshold:t))
       (Graphkit.Pid.Set.elements members))

(* The arms of the accept and confirm rules on a statement's tally, as
   [Node] asks them of a statement with no prepare subsumption. *)
let quorum_voted fv stmt =
  Fvoting.quorum_within fv (Fvoting.tally fv stmt).voters

let blocking_accepted fv stmt =
  Fvoting.v_blocking fv (Fvoting.tally fv stmt).acceptors

let accept_arms fv stmt = quorum_voted fv stmt || blocking_accepted fv stmt

let confirm_arm fv stmt =
  Fvoting.quorum_within fv (Fvoting.tally fv stmt).acceptors

let test_fv_accept_via_quorum () =
  let sys = threshold_system 4 3 in
  let fv = Fvoting.create ~self:1 ~system:(fun () -> sys) () in
  let stmt = Statement.Nominate (v [ 5 ]) in
  Alcotest.(check bool) "nothing yet" false (accept_arms fv stmt);
  Fvoting.record_vote fv stmt 1;
  Fvoting.record_vote fv stmt 2;
  Alcotest.(check bool) "2 of 4 votes insufficient" false
    (accept_arms fv stmt);
  Fvoting.record_vote fv stmt 3;
  Alcotest.(check bool) "3 of 4 votes suffice" true
    (accept_arms fv stmt)

let test_fv_accept_requires_own_membership () =
  let sys = threshold_system 4 3 in
  let fv = Fvoting.create ~self:1 ~system:(fun () -> sys) () in
  let stmt = Statement.Nominate (v [ 5 ]) in
  (* A quorum that does not include node 1 does not let 1 accept via
     the quorum arm. *)
  Fvoting.record_vote fv stmt 2;
  Fvoting.record_vote fv stmt 3;
  Fvoting.record_vote fv stmt 4;
  Alcotest.(check bool) "quorum arm requires own vote" false
    (quorum_voted fv stmt)

let test_fv_accept_via_blocking () =
  let sys = threshold_system 4 3 in
  let fv = Fvoting.create ~self:1 ~system:(fun () -> sys) () in
  let stmt = Statement.Nominate (v [ 5 ]) in
  (* v-blocking for threshold 3-of-4: leave fewer than 3 slots, i.e.
     any 2 of the other members. *)
  Fvoting.record_accept fv stmt 2;
  Alcotest.(check bool) "one acceptor not blocking" false
    (blocking_accepted fv stmt);
  Fvoting.record_accept fv stmt 3;
  Alcotest.(check bool) "two acceptors blocking" true
    (blocking_accepted fv stmt);
  Alcotest.(check bool) "accept now possible without own vote" true
    (accept_arms fv stmt)

let test_fv_confirm () =
  let sys = threshold_system 4 3 in
  let fv = Fvoting.create ~self:1 ~system:(fun () -> sys) () in
  let stmt = Statement.Nominate (v [ 5 ]) in
  Fvoting.record_accept fv stmt 1;
  Fvoting.record_accept fv stmt 2;
  Alcotest.(check bool) "2 acceptors no confirm" false
    (confirm_arm fv stmt);
  Fvoting.record_accept fv stmt 3;
  Alcotest.(check bool) "3 acceptors confirm" true
    (confirm_arm fv stmt)

let test_fv_commit_implies_prepare_tally () =
  let sys = threshold_system 4 3 in
  let fv = Fvoting.create ~self:1 ~system:(fun () -> sys) () in
  let b = Ballot.make 1 (v [ 5 ]) in
  Fvoting.record_vote fv (Statement.Commit b) 2;
  let tl = Fvoting.tally fv (Statement.Prepare b) in
  Alcotest.(check bool) "commit vote counted for prepare" true
    (Graphkit.Pid.Dense_set.mem 2 tl.voters)

(* The dirty-flag contract of [Fvoting.iter_dirty]: what it visits
   after each kind of change. *)
let stmt_list = Alcotest.(list (testable Statement.pp Statement.equal))

let dirty fv =
  let seen = ref [] in
  Fvoting.iter_dirty (fun stmt _ -> seen := stmt :: !seen) fv;
  List.rev !seen

let test_fv_dirty_flags () =
  let sys = ref (threshold_system 4 3) in
  let fv = Fvoting.create ~self:1 ~system:(fun () -> !sys) () in
  let nom = Statement.Nominate (v [ 5 ]) in
  let p1 = Statement.Prepare (Ballot.make 1 (v [ 5 ])) in
  let p2 = Statement.Prepare (Ballot.make 2 (v [ 5 ])) in
  let p2' = Statement.Prepare (Ballot.make 2 (v [ 6 ])) in
  let p3 = Statement.Prepare (Ballot.make 3 (v [ 5 ])) in
  Fvoting.record_vote fv nom 2;
  Fvoting.record_vote fv p1 2;
  Fvoting.record_vote fv p2' 2;
  Alcotest.check stmt_list "new statements, in statement order"
    [ nom; p1; p2' ] (dirty fv);
  Alcotest.check stmt_list "visiting cleared them" [] (dirty fv);
  Fvoting.record_vote fv nom 2;
  Fvoting.record_accept fv p1 3;
  Fvoting.record_accept fv p1 3;
  Alcotest.check stmt_list "only the grown tally" [ p1 ] (dirty fv);
  Fvoting.record_vote fv nom 2;
  Fvoting.mark_accepted fv nom;
  Fvoting.mark_confirmed fv p1;
  Alcotest.check stmt_list "repeats and marks dirty nothing" [] (dirty fv);
  Fvoting.record_vote fv p3 3;
  Alcotest.check stmt_list
    "a grown prepare dirties the compatible prepares below it" [ p1; p3 ]
    (dirty fv);
  Fvoting.record_vote fv p2 4;
  Alcotest.check stmt_list "but not those above it" [ p1; p2 ] (dirty fv);
  sys := threshold_system 4 2;
  Alcotest.check stmt_list "a new system value dirties every statement"
    [ nom; p1; p2; p2'; p3 ] (dirty fv);
  Alcotest.check stmt_list "an unchanged one dirties nothing" [] (dirty fv)

(* [Msg.hash] keys the dedup table: envelopes that are [Msg.equal]
   must hash alike, including copies that are not physically equal. *)
let gen_envelope =
  QCheck.Gen.(
    map
      (fun (origin, accept, (kind, counter, x), wide) ->
        let value = v [ x ] in
        let stmt =
          match kind with
          | 0 -> Statement.Nominate value
          | 1 -> Statement.Prepare (Ballot.make counter value)
          | _ -> Statement.Commit (Ballot.make counter value)
        in
        let members = Graphkit.Pid.Set.of_range 0 (if wide then 4 else 3) in
        let slices = Fbqs.Slice.threshold ~members ~threshold:2 in
        if accept then Msg.accept origin ~slices stmt
        else Msg.vote origin ~slices stmt)
      (quad (int_bound 2) bool
         (triple (int_bound 2) (int_range 1 2) (int_bound 1))
         bool))

let prop_msg_hash_agrees_with_equal =
  QCheck.Test.make ~count:300 ~name:"Msg.hash agrees with Msg.equal"
    (QCheck.make QCheck.Gen.(list_size (int_range 2 30) gen_envelope))
    (fun envs ->
      List.for_all
        (fun a ->
          Msg.hash a >= 0
          && List.for_all
               (fun b ->
                 (not (Msg.equal a b)) || Int.equal (Msg.hash a) (Msg.hash b))
               envs)
        envs)

(* ---- Value against the seed's Set-backed value ---------------------- *)

module O = Oracle.Value

let sign c = Int.compare c 0

(* Unsorted lists with duplicates, negative and large ints. *)
let gen_ints =
  QCheck.Gen.(
    list_size (int_bound 8)
      (oneof
         [
           int_range (-5) 12;
           oneofl [ min_int; max_int; -1_000_000_007; 1 lsl 40 ];
         ]))

let arb_ints = QCheck.make ~print:QCheck.Print.(list int) gen_ints

let same_value v o =
  Value.to_list v = O.to_list o
  && String.equal
       (Format.asprintf "%a" Value.pp v)
       (Format.asprintf "%a" O.pp o)

let prop_value_of_ints =
  QCheck.Test.make ~count:500 ~name:"Value.of_ints/to_list/pp = oracle"
    arb_ints (fun l ->
      same_value (Value.of_ints l) (O.of_ints l)
      && Bool.equal (Value.is_empty (Value.of_ints l)) (O.is_empty (O.of_ints l)))

let prop_value_pairs =
  QCheck.Test.make ~count:1000 ~name:"Value compare/equal/union = oracle"
    (QCheck.pair arb_ints arb_ints) (fun (a, b) ->
      let va = Value.of_ints a and vb = Value.of_ints b in
      let oa = O.of_ints a and ob = O.of_ints b in
      sign (Value.compare va vb) = sign (O.compare oa ob)
      && Bool.equal (Value.equal va vb) (O.equal oa ob)
      && same_value (Value.union va vb) (O.union oa ob)
      && Value.compare va va = 0)

let prop_value_combine =
  QCheck.Test.make ~count:300 ~name:"Value.combine = oracle"
    (QCheck.small_list arb_ints) (fun ls ->
      same_value
        (Value.combine (List.map Value.of_ints ls))
        (O.combine (List.map O.of_ints ls)))

(* Statements keyed by the oracle value, in the seed's statement order. *)
let oracle_stmt_compare (ta, ca, oa) (tb, cb, ob) =
  match Int.compare ta tb with
  | 0 -> ( match Int.compare ca cb with 0 -> O.compare oa ob | c -> c)
  | c -> c

let gen_stmt =
  QCheck.Gen.(
    let* tag = int_bound 2 in
    let* counter = int_range 1 3 in
    let* ints = list_size (int_bound 3) (int_range 0 4) in
    let v = Value.of_ints ints in
    let stmt =
      match tag with
      | 0 -> Statement.Nominate v
      | 1 -> Statement.Prepare (Ballot.make counter v)
      | _ -> Statement.Commit (Ballot.make counter v)
    in
    return (stmt, (tag, (if tag = 0 then 0 else counter), O.of_ints ints)))

let prop_statement_map_order =
  QCheck.Test.make ~count:300
    ~name:"Statement.Map bindings in the oracle's statement order"
    (QCheck.make
       ~print:(fun l ->
         String.concat "; "
           (List.map (fun (s, _) -> Format.asprintf "%a" Statement.pp s) l))
       QCheck.Gen.(list_size (int_bound 30) gen_stmt))
    (fun stmts ->
      let m =
        List.fold_left
          (fun m (s, key) -> Statement.Map.add s key m)
          Statement.Map.empty stmts
      in
      let expected =
        List.sort_uniq oracle_stmt_compare (List.map snd stmts)
      in
      let keys = List.map snd (Statement.Map.bindings m) in
      List.length keys = List.length expected
      && List.for_all2 (fun a b -> oracle_stmt_compare a b = 0) keys expected)

let suites =
  [
    ( "scp_unit",
      [
        Alcotest.test_case "value operations" `Quick test_value_ops;
        Alcotest.test_case "ballot order" `Quick test_ballot_order;
        Alcotest.test_case "statement implication" `Quick
          test_statement_implication;
        Alcotest.test_case "FV accept via quorum" `Quick
          test_fv_accept_via_quorum;
        Alcotest.test_case "FV quorum arm needs own vote" `Quick
          test_fv_accept_requires_own_membership;
        Alcotest.test_case "FV accept via v-blocking" `Quick
          test_fv_accept_via_blocking;
        Alcotest.test_case "FV confirm" `Quick test_fv_confirm;
        Alcotest.test_case "FV commit implies prepare" `Quick
          test_fv_commit_implies_prepare_tally;
        Alcotest.test_case "FV dirty flags" `Quick test_fv_dirty_flags;
        QCheck_alcotest.to_alcotest prop_msg_hash_agrees_with_equal;
        QCheck_alcotest.to_alcotest prop_value_of_ints;
        QCheck_alcotest.to_alcotest prop_value_pairs;
        QCheck_alcotest.to_alcotest prop_value_combine;
        QCheck_alcotest.to_alcotest prop_statement_map_order;
      ] );
  ]
