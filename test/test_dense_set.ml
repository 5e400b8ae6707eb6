(* Pid.Dense_set must be observationally identical to Pid.Set, and the
   dense-compiled Fbqs.Quorum must be observationally identical to the
   seed's tree-set Algorithm 1 — both checked on random inputs. *)

open Graphkit
module D = Pid.Dense_set

let pid_set = Alcotest.testable Pid.Set.pp Pid.Set.equal

(* ---- unit: representation edges -------------------------------------- *)

let test_word_boundaries () =
  (* ids straddling the 63-bit word boundary (62/63/64) and beyond *)
  let ids = [ 0; 1; 61; 62; 63; 64; 125; 126; 127; 200 ] in
  let d = D.of_list ids in
  Alcotest.(check (list int)) "elements ascending" ids (D.elements d);
  List.iter
    (fun i -> Alcotest.(check bool) (string_of_int i) true (D.mem i d))
    ids;
  Alcotest.(check bool) "65 absent" false (D.mem 65 d);
  Alcotest.(check int) "cardinal" (List.length ids) (D.cardinal d);
  Alcotest.(check (option int)) "min" (Some 0) (D.min_elt_opt d);
  Alcotest.(check (option int)) "max" (Some 200) (D.max_elt_opt d);
  let d' = D.remove 200 d in
  Alcotest.(check (option int)) "max after remove" (Some 127)
    (D.max_elt_opt d');
  Alcotest.(check bool) "remove absent is identity" true
    (D.equal d (D.remove 500 d))

let test_of_range () =
  Alcotest.(check (list int)) "of_range" [ 3; 4; 5; 6 ]
    (D.elements (D.of_range 3 6));
  Alcotest.(check bool) "empty range" true (D.is_empty (D.of_range 5 4));
  Alcotest.check pid_set "matches Pid.Set.of_range" (Pid.Set.of_range 0 130)
    (D.to_set (D.of_range 0 130))

let test_negative_rejected () =
  Alcotest.check_raises "add" (Invalid_argument "Pid.Dense_set: negative process id")
    (fun () -> ignore (D.add (-1) D.empty));
  Alcotest.check_raises "of_list" (Invalid_argument "Pid.Dense_set: negative process id")
    (fun () -> ignore (D.of_list [ 3; -2 ]));
  Alcotest.(check bool) "mem is total" false (D.mem (-1) (D.of_list [ 0 ]));
  (* The kernels built on dense ids refuse a negative pid the same way. *)
  Alcotest.check_raises "Quorum.Compiled.compile"
    (Invalid_argument "Quorum.Compiled.compile: negative process id")
    (fun () ->
      ignore
        (Fbqs.Quorum.Compiled.compile
           (Fbqs.Quorum.system_of_list [ (-1, Fbqs.Slice.explicit []) ])));
  Alcotest.check_raises "Engine.add_node"
    (Invalid_argument "Engine.add_node: negative process id") (fun () ->
      Simkit.Engine.add_node
        (Simkit.Engine.create_cfg Simkit.Run_config.default)
        (-1) Simkit.Engine.idle_behavior)

(* ---- qcheck: agreement with Pid.Set on random operation sequences ---- *)

let gen_ids = QCheck.Gen.(list_size (int_bound 40) (int_bound 200))

let arb_ids = QCheck.make ~print:QCheck.Print.(list int) gen_ids

let arb_ids2 =
  QCheck.make
    ~print:QCheck.Print.(pair (list int) (list int))
    QCheck.Gen.(pair gen_ids gen_ids)

let both l = (Pid.Set.of_list l, D.of_list l)

let agrees s d = Pid.Set.equal s (D.to_set d)

let count = 500

let prop_of_list_roundtrip =
  QCheck.Test.make ~count ~name:"of_list/to_set/elements agree with Pid.Set"
    arb_ids (fun l ->
      let s, d = both l in
      agrees s d
      && D.elements d = Pid.Set.elements s
      && D.cardinal d = Pid.Set.cardinal s
      && D.equal (D.of_set s) d)

let prop_set_algebra =
  QCheck.Test.make ~count ~name:"union/inter/diff agree with Pid.Set" arb_ids2
    (fun (l1, l2) ->
      let s1, d1 = both l1 and s2, d2 = both l2 in
      agrees (Pid.Set.union s1 s2) (D.union d1 d2)
      && agrees (Pid.Set.inter s1 s2) (D.inter d1 d2)
      && agrees (Pid.Set.diff s1 s2) (D.diff d1 d2)
      && agrees (Pid.Set.diff s2 s1) (D.diff d2 d1))

let prop_predicates =
  QCheck.Test.make ~count ~name:"subset/disjoint/equal/mem agree with Pid.Set"
    arb_ids2 (fun (l1, l2) ->
      let s1, d1 = both l1 and s2, d2 = both l2 in
      D.subset d1 d2 = Pid.Set.subset s1 s2
      && D.disjoint d1 d2 = Pid.Set.disjoint s1 s2
      && D.equal d1 d2 = Pid.Set.equal s1 s2
      && List.for_all (fun i -> D.mem i d2 = Pid.Set.mem i s2) l1)

let prop_inter_cardinal =
  QCheck.Test.make ~count
    ~name:"inter_cardinal = cardinal of intersection" arb_ids2
    (fun (l1, l2) ->
      let s1, d1 = both l1 and s2, d2 = both l2 in
      D.inter_cardinal d1 d2 = Pid.Set.cardinal (Pid.Set.inter s1 s2)
      && D.inter_cardinal d1 d2 = D.cardinal (D.inter d1 d2))

let prop_fold_order =
  QCheck.Test.make ~count ~name:"fold/iter/filter order agrees with Pid.Set"
    arb_ids (fun l ->
      let s, d = both l in
      D.fold (fun i acc -> i :: acc) d []
      = Pid.Set.fold (fun i acc -> i :: acc) s []
      && (let seen = ref [] in
          D.iter (fun i -> seen := i :: !seen) d;
          List.rev !seen = Pid.Set.elements s)
      && agrees
           (Pid.Set.filter (fun i -> i mod 3 = 0) s)
           (D.filter (fun i -> i mod 3 = 0) d)
      && D.for_all (fun i -> i mod 2 = 0) d
         = Pid.Set.for_all (fun i -> i mod 2 = 0) s
      && D.exists (fun i -> i mod 7 = 1) d
         = Pid.Set.exists (fun i -> i mod 7 = 1) s)

let prop_add_remove =
  QCheck.Test.make ~count ~name:"add/remove agree with Pid.Set" arb_ids2
    (fun (l1, l2) ->
      let s, d =
        List.fold_left
          (fun (s, d) i -> (Pid.Set.add i s, D.add i d))
          (both l1) l2
      in
      agrees s d
      && (let s', d' =
            List.fold_left
              (fun (s, d) i -> (Pid.Set.remove i s, D.remove i d))
              (s, d) l1
          in
          agrees s' d'))

(* ---- qcheck: packed families over members of one to four words ------ *)

(* A member of [words] words (0: the empty member): one id in its top
   word, so families mix widths, and ids never above 250. *)
let gen_member =
  QCheck.Gen.(
    let* words = int_bound 4 in
    if words = 0 then return []
    else
      let hi = min 250 ((words * Sys.int_size) - 1) in
      let* top = int_range ((words - 1) * Sys.int_size) hi in
      let* rest = list_size (int_bound 6) (int_bound hi) in
      return (top :: rest))

(* A family of zero to five members, and a candidate that is either
   random (of any width, so often shorter than the widest member) or a
   member with ids added and maybe one removed. *)
let gen_family_and_candidate =
  QCheck.Gen.(
    let* members = list_size (int_bound 5) gen_member in
    let* extra = gen_member in
    let* base =
      match members with
      | [] -> return []
      | _ ->
          let* k = int_bound (List.length members - 1) in
          let* use = bool in
          return (if use then List.nth members k else [])
    in
    let* drop = int_range (-1) 250 in
    return (members, List.filter (fun i -> i <> drop) (base @ extra)))

let prop_family_exists_subset =
  QCheck.Test.make ~count ~name:"exists_subset (family l) = exists subset"
    (QCheck.make
       ~print:QCheck.Print.(pair (list (list int)) (list int))
       gen_family_and_candidate)
    (fun (members, q) ->
      let ds = List.map D.of_list members and qd = D.of_list q in
      D.exists_subset (D.family ds) qd
      = List.exists (fun s -> D.subset s qd) ds)

(* ---- qcheck: the rewired Quorum vs the seed Algorithm 1 -------------- *)

(* Random mixed systems: explicit slice lists, threshold slices (some
   shared, some unsatisfiable), absent processes — plus a random
   candidate set that may name non-participants. *)
let gen_system_and_candidate =
  QCheck.Gen.(
    let* n = int_range 3 12 in
    let universe = List.init n (fun i -> i + 1) in
    let gen_member = int_range 1 n in
    let gen_slice_kind pid =
      let* kind = int_bound 3 in
      match kind with
      | 0 ->
          (* explicit slice list *)
          let* slices =
            list_size (int_range 1 3)
              (list_size (int_range 1 3) gen_member)
          in
          return (Some (pid, Fbqs.Slice.explicit (List.map Pid.Set.of_list slices)))
      | 1 | 2 ->
          (* threshold over a random member pool; threshold may exceed
             the pool (empty slice set) or be 0 (always satisfied) *)
          let* pool = list_size (int_range 1 n) gen_member in
          let members = Pid.Set.of_list pool in
          let* threshold = int_bound (Pid.Set.cardinal members + 2) in
          return (Some (pid, Fbqs.Slice.threshold ~members ~threshold))
      | _ ->
          (* silent process: declares nothing *)
          return None
    in
    let* assoc = flatten_l (List.map gen_slice_kind universe) in
    let sys = Fbqs.Quorum.system_of_list (List.filter_map Fun.id assoc) in
    let* candidate = list_size (int_bound (n + 2)) (int_range 1 (n + 2)) in
    return (sys, Pid.Set.of_list candidate))

let arb_system_and_candidate =
  QCheck.make
    ~print:(fun (sys, q) ->
      Format.asprintf "system=%a q=%a" (Pid.Map.pp Fbqs.Slice.pp) sys
        Pid.Set.pp q)
    gen_system_and_candidate

module Compiled = Fbqs.Quorum.Compiled

let prop_is_quorum_equiv =
  QCheck.Test.make ~count ~name:"is_quorum = seed Algorithm 1"
    arb_system_and_candidate (fun (sys, q) ->
      Compiled.is_quorum (Compiled.compile sys) q
      = Oracle.Quorum.is_quorum sys q)

let prop_greatest_equiv =
  QCheck.Test.make ~count ~name:"greatest_quorum_within = seed fixpoint"
    arb_system_and_candidate (fun (sys, q) ->
      Pid.Set.equal
        (Compiled.greatest_quorum_within (Compiled.compile sys) q)
        (Oracle.Quorum.greatest_quorum_within sys q))

let prop_threshold_sharing =
  (* Algorithm 2 shape: every process shares one threshold record. The
     compiled class cache must give the same answers as the reference on
     candidates around the threshold boundary. *)
  QCheck.Test.make ~count:200 ~name:"shared-threshold systems match seed"
    (QCheck.make
       ~print:QCheck.Print.(pair int int)
       QCheck.Gen.(pair (int_range 4 64) (int_bound 66)))
    (fun (n, k) ->
      let members = Pid.Set.of_range 1 n in
      let threshold = (2 * n / 3) + 1 in
      let slice = Fbqs.Slice.threshold ~members ~threshold in
      let sys =
        Fbqs.Quorum.system_of_list
          (List.map (fun i -> (i, slice)) (Pid.Set.elements members))
      in
      let q = Pid.Set.of_range 1 (min (max 1 k) n) in
      let c = Compiled.compile sys in
      Compiled.is_quorum c q = Oracle.Quorum.is_quorum sys q
      && Pid.Set.equal
           (Compiled.greatest_quorum_within c q)
           (Oracle.Quorum.greatest_quorum_within sys q))

let suites =
  [
    ( "dense_set",
      [
        Alcotest.test_case "word boundaries" `Quick test_word_boundaries;
        Alcotest.test_case "of_range" `Quick test_of_range;
        Alcotest.test_case "negative ids rejected" `Quick
          test_negative_rejected;
        QCheck_alcotest.to_alcotest prop_of_list_roundtrip;
        QCheck_alcotest.to_alcotest prop_set_algebra;
        QCheck_alcotest.to_alcotest prop_predicates;
        QCheck_alcotest.to_alcotest prop_inter_cardinal;
        QCheck_alcotest.to_alcotest prop_fold_order;
        QCheck_alcotest.to_alcotest prop_add_remove;
        QCheck_alcotest.to_alcotest prop_family_exists_subset;
        QCheck_alcotest.to_alcotest prop_is_quorum_equiv;
        QCheck_alcotest.to_alcotest prop_greatest_equiv;
        QCheck_alcotest.to_alcotest prop_threshold_sharing;
      ] );
  ]
