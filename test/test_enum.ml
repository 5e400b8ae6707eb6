open Graphkit
open Fbqs

let set = Pid.Set.of_list
let pid_set = Alcotest.testable Pid.Set.pp Pid.Set.equal
let pid_sets = Alcotest.(list pid_set)

(* Canonical order shared with Enum: ascending cardinality, then set
   compare — lets us diff whole set families against brute force. *)
let canonical sets =
  List.sort_uniq
    (fun a b ->
      match Int.compare (Pid.Set.cardinal a) (Pid.Set.cardinal b) with
      | 0 -> Pid.Set.compare a b
      | c -> c)
    sets

let subsets universe =
  let elts = Array.of_list (Pid.Set.elements universe) in
  let n = Array.length elts in
  List.init (1 lsl n) (fun mask ->
      let s = ref Pid.Set.empty in
      for b = 0 to n - 1 do
        if mask land (1 lsl b) <> 0 then s := Pid.Set.add elts.(b) !s
      done;
      !s)

let sets_equal a b =
  List.length a = List.length b && List.for_all2 Pid.Set.equal a b

let minimal_of sets =
  List.filter
    (fun s ->
      not
        (List.exists
           (fun s' -> (not (Pid.Set.equal s s')) && Pid.Set.subset s' s)
           sets))
    sets

(* Classic 4-node 3f+1 system. *)
let pbft4 =
  let members = Pid.Set.of_range 1 4 in
  Quorum.system_of_list
    (List.map
       (fun i -> (i, Slice.threshold ~members ~threshold:3))
       (Pid.Set.elements members))

(* Two self-sufficient cliques: the canonical intersection
   counterexample (two disjoint quorums from the start). *)
let cliques =
  Quorum.system_of_list
    [
      (1, Slice.explicit [ set [ 1; 2 ] ]);
      (2, Slice.explicit [ set [ 1; 2 ] ]);
      (3, Slice.explicit [ set [ 3; 4 ] ]);
      (4, Slice.explicit [ set [ 3; 4 ] ]);
    ]

let test_pbft4 () =
  let t = Enum.prepare pbft4 in
  Alcotest.check pid_sets "minimal quorums = 3-subsets"
    (canonical
       (List.filter (fun s -> Pid.Set.cardinal s = 3)
          (subsets (Pid.Set.of_range 1 4))))
    (Enum.minimal_quorums t);
  Alcotest.check pid_set "top tier" (Pid.Set.of_range 1 4) (Enum.top_tier t);
  (match Enum.check_intersection t with
  | Enum.Intersects -> ()
  | Enum.Disjoint _ -> Alcotest.fail "pbft4 quorums intersect");
  let b = Enum.minimal_blocking_sets t in
  Alcotest.(check bool) "blocking complete" true b.Enum.complete;
  Alcotest.check pid_sets "blocking = 2-subsets"
    (canonical
       (List.filter (fun s -> Pid.Set.cardinal s = 2)
          (subsets (Pid.Set.of_range 1 4))))
    b.Enum.sets;
  Alcotest.check pid_sets "splitting = 2-subsets"
    (canonical
       (List.filter (fun s -> Pid.Set.cardinal s = 2)
          (subsets (Pid.Set.of_range 1 4))))
    (Enum.minimal_splitting_sets t)

let test_disjoint_cliques () =
  let t = Enum.prepare cliques in
  (match Enum.check_intersection t with
  | Enum.Intersects -> Alcotest.fail "cliques have disjoint quorums"
  | Enum.Disjoint (q1, q2) ->
      Alcotest.(check bool) "witness disjoint" true
        (Pid.Set.is_empty (Pid.Set.inter q1 q2));
      Alcotest.(check bool) "both are quorums" true
        (Quorum.is_quorum cliques q1 && Quorum.is_quorum cliques q2));
  Alcotest.(check bool) "deleting one clique restores intersection" true
    (Enum.quorum_intersection_despite cliques (set [ 3; 4 ]));
  Alcotest.check pid_sets "empty set splits"
    [ Pid.Set.empty ]
    (Enum.minimal_splitting_sets t)

let test_fig2_algorithm2 () =
  (* The paper's Fig. 2 running example with Algorithm 2 slices. *)
  let sys = Cup.Slice_builder.system_via_oracle ~f:1 Builtin.fig2 in
  let t = Enum.prepare sys in
  Alcotest.check pid_sets "minimal quorums match Gosper"
    (canonical (Quorum.minimal_quorums sys))
    (Enum.minimal_quorums t);
  (match Enum.check_intersection t with
  | Enum.Intersects -> ()
  | Enum.Disjoint _ -> Alcotest.fail "fig2 quorums intersect");
  Alcotest.check pid_set "top tier matches baseline"
    (Oracle.Analysis.top_tier sys)
    (Enum.top_tier t)

let test_stats_move () =
  let t = Enum.prepare pbft4 in
  ignore (Enum.minimal_quorums t);
  let s = Enum.stats t in
  Alcotest.(check bool) "explored > 0" true (s.Enum.explored > 0);
  Alcotest.(check int) "found = minimal quorum count" 4 s.Enum.found

(* ---- fixture provenance ------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let test_fixture_provenance () =
  (* The committed live-network fixture is exactly what the generator
     produces at the default seed — regenerating must be a no-op on
     every OCaml version (the generator uses its own LCG, not
     [Random]). *)
  let generated = Fbas_io.to_string (Topology.stellarbeat_like ()) in
  Alcotest.(check string)
    "fixtures/live_network.fbas = stellarbeat_like ()"
    (read_file "fixtures/live_network.fbas")
    generated

let test_fixture_analysis () =
  (* Smoke the committed fixture at full scale: the CI analyzer gate
     depends on these shapes staying put. *)
  match Fbas_io.of_file "fixtures/live_network.fbas" with
  | Error e -> Alcotest.fail e
  | Ok sys ->
      let t = Enum.prepare sys in
      Alcotest.(check int) "participants" 210
        (Pid.Set.cardinal (Quorum.participants sys));
      Alcotest.(check int) "minimal quorums" 519
        (List.length (Enum.minimal_quorums t));
      Alcotest.check pid_set "top tier = the 21 top validators"
        (Pid.Set.of_range 0 20) (Enum.top_tier t);
      (match Enum.check_intersection t with
      | Enum.Intersects -> ()
      | Enum.Disjoint _ -> Alcotest.fail "fixture enjoys intersection")

(* ---- random systems ---------------------------------------------------- *)

(* Deterministic explicit-slice system from an int seed: n nodes, each
   with 1-3 slices over arbitrary subsets. Same LCG trick as
   [Topology] — the qcheck cases must replay identically under both
   OCaml 4.x and 5.x. *)
let random_system seed n =
  let state = ref (((seed * 2862933555777941757) + 3037000493) land max_int) in
  let next bound =
    state :=
      ((!state * 2685821657736338717) + 1442695040888963407) land max_int;
    (!state lsr 17) mod bound
  in
  Quorum.system_of_list
    (List.init n (fun i ->
         let i = i + 1 in
         let n_slices = 1 + next 3 in
         let slice () =
           let s =
             List.filter (fun _ -> next 2 = 0)
               (List.init n (fun j -> j + 1))
           in
           Pid.Set.of_list (if s = [] then [ i ] else s)
         in
         (i, Slice.explicit (List.init n_slices (fun _ -> slice ())))))

let sys_arb =
  QCheck.(
    map
      (fun (seed, n) -> (seed, n, random_system seed n))
      (pair (int_range 0 100000) (int_range 1 7)))
  |> QCheck.set_print (fun (seed, n, _) -> Printf.sprintf "seed=%d n=%d" seed n)

let prop_minimal_quorums_equiv =
  QCheck.Test.make ~count:200 ~name:"B&B minimal quorums = Gosper"
    sys_arb
    (fun (_, _, sys) ->
      sets_equal
        (Enum.minimal_quorums (Enum.prepare sys))
        (canonical (Quorum.minimal_quorums sys)))

let prop_intersection_equiv =
  QCheck.Test.make ~count:200 ~name:"intersection = baseline despite {}"
    sys_arb
    (fun (_, _, sys) ->
      let bb =
        match Enum.quorum_intersection sys with
        | Enum.Intersects -> true
        | Enum.Disjoint _ -> false
      in
      bb = Oracle.Dset.quorum_intersection_despite sys Pid.Set.empty)

let prop_despite_equiv =
  QCheck.Test.make ~count:200 ~name:"intersection despite = baseline"
    QCheck.(pair sys_arb (int_range 0 127))
    (fun ((_, n, sys), bmask) ->
      let b =
        Pid.Set.filter
          (fun i -> bmask land (1 lsl (i - 1)) <> 0)
          (Pid.Set.of_range 1 n)
      in
      Enum.quorum_intersection_despite sys b
      = Oracle.Dset.quorum_intersection_despite sys b)

let prop_blocking_equiv =
  (* Brute force: a set blocks iff its complement contains no quorum;
     minimal blocking sets are the inclusion-minimal such sets. *)
  QCheck.Test.make ~count:200 ~name:"B&B blocking sets = brute force"
    sys_arb
    (fun (_, _, sys) ->
      let parts = Quorum.participants sys in
      let brute =
        canonical
          (minimal_of
             (List.filter
                (fun b ->
                  (not (Pid.Set.is_empty b))
                  && not (Quorum.contains_quorum sys (Pid.Set.diff parts b)))
                (subsets parts)))
      in
      let r = Enum.minimal_blocking_sets (Enum.prepare sys) in
      r.Enum.complete && sets_equal r.Enum.sets brute)

(* ---- blocking sets against the list-based reference walk -------------- *)

(* A list-based reference for Enum's minimal-hitting-set walk: a node's
   uncovered quorums are a list of quorum bitsets, and the minimality
   check rescans every quorum per chosen member. Enum must visit the
   same tree in the same order, so at any [limit] the finds, the
   [complete] flag and the tick counts agree. *)
module Blocking_reference = struct
  module D = Pid.Dense_set

  exception Stop

  (* each member must be the sole hitter of some quorum *)
  let minimal quorums chosen =
    D.for_all
      (fun b ->
        Array.exists
          (fun q -> D.mem b q && D.inter_cardinal q chosen = 1)
          quorums)
      chosen

  (* the uncovered quorum with the fewest usable members, first wins *)
  let best uncovered excluded =
    List.fold_left
      (fun best q ->
        let usable = D.diff q excluded in
        let c = D.cardinal usable in
        match best with
        | Some (_, bc) when bc <= c -> best
        | _ -> Some (usable, c))
      None uncovered

  (* [(sets, complete, explored, pruned)] *)
  let run ?(limit = max_int) quorums =
    let explored = ref 0 and pruned = ref 0 in
    let found = ref [] and count = ref 0 in
    let rec go chosen uncovered excluded =
      incr explored;
      match uncovered with
      | [] ->
          if minimal quorums chosen then begin
            found := D.to_set chosen :: !found;
            incr count;
            if !count >= limit then raise Stop
          end
      | _ ->
          let usable, card = Option.get (best uncovered excluded) in
          if card = 0 then incr pruned
          else
            ignore
              (D.fold
                 (fun v excluded ->
                   go (D.add v chosen)
                     (List.filter (fun q -> not (D.mem v q)) uncovered)
                     excluded;
                   D.add v excluded)
                 usable excluded)
    in
    let complete =
      match go D.empty (Array.to_list quorums) D.empty with
      | () -> true
      | exception Stop -> false
    in
    (canonical !found, complete, !explored, !pruned)
end

let test_blocking_reference () =
  (* 18 top validators and 105 minimal quorums: the quorum-index
     bitsets span two words. *)
  let sys =
    Topology.stellarbeat_like ~orgs:6 ~validators_per_org:3 ~mid:6 ~leaves:6
      ()
  in
  let quorums =
    Array.of_list
      (List.map Pid.Dense_set.of_set (Enum.minimal_quorums (Enum.prepare sys)))
  in
  Alcotest.(check bool) "more minimal quorums than one word holds" true
    (Array.length quorums > Sys.int_size);
  List.iter
    (fun (jobs, limit) ->
      let case field =
        Printf.sprintf "jobs=%d limit=%s: %s" jobs
          (Option.fold ~none:"none" ~some:string_of_int limit)
          field
      in
      let sets, complete, explored, pruned =
        Blocking_reference.run ?limit quorums
      in
      let t = Enum.prepare sys in
      ignore (Enum.minimal_quorums ~jobs t);
      let before = Enum.stats t in
      let r = Enum.minimal_blocking_sets ?limit ~jobs t in
      let after = Enum.stats t in
      Alcotest.check pid_sets (case "sets") sets r.Enum.sets;
      Alcotest.(check bool) (case "complete") complete r.Enum.complete;
      Alcotest.(check int) (case "explored") explored
        (after.Enum.explored - before.Enum.explored);
      Alcotest.(check int) (case "pruned") pruned
        (after.Enum.pruned - before.Enum.pruned);
      Alcotest.(check int) (case "found") 0
        (after.Enum.found - before.Enum.found))
    [ (1, None); (2, None); (1, Some 1); (1, Some 150); (2, Some 150) ]

let prop_splitting_equiv =
  QCheck.Test.make ~count:100 ~name:"splitting sets = baseline"
    sys_arb
    (fun (_, _, sys) ->
      sets_equal
        (canonical (Oracle.Analysis.splitting_sets sys))
        (Enum.minimal_splitting_sets
           ~universe:(Quorum.participants sys)
           (Enum.prepare sys)))

let prop_fbas_io_roundtrip =
  QCheck.Test.make ~count:200 ~name:"fbas_io print/parse roundtrip"
    sys_arb
    (fun (_, _, sys) ->
      match Fbas_io.of_string (Fbas_io.to_string sys) with
      | Error _ -> false
      | Ok sys' ->
          Pid.Map.equal
            (fun a b ->
              match (a, b) with
              | Slice.Explicit xs, Slice.Explicit ys ->
                  List.length xs = List.length ys
                  && List.for_all2 Pid.Set.equal xs ys
              | ( Slice.Threshold { members = m1; threshold = t1 },
                  Slice.Threshold { members = m2; threshold = t2 } ) ->
                  Pid.Set.equal m1 m2 && t1 = t2
              | _ -> false)
            sys sys')

let prop_fbas_io_threshold_roundtrip =
  QCheck.Test.make ~count:100 ~name:"fbas_io threshold roundtrip"
    QCheck.(pair (int_range 1 8) (int_range 0 8))
    (fun (n, t) ->
      let members = Pid.Set.of_range 1 n in
      let sys =
        Quorum.system_of_list
          (List.map
             (fun i -> (i, Slice.threshold ~members ~threshold:(min t n)))
             (Pid.Set.elements members))
      in
      match Fbas_io.of_string (Fbas_io.to_string sys) with
      | Error _ -> false
      | Ok sys' ->
          Pid.Set.equal (Quorum.participants sys) (Quorum.participants sys')
          && sets_equal (Quorum.minimal_quorums sys)
               (Quorum.minimal_quorums sys'))

(* Every Fbas_io error path, with its exact message and line number.
   A negative id is refused wherever a pid may appear. *)
let test_fbas_io_malformed () =
  let check name want text =
    match Fbas_io.of_string text with
    | Error e -> Alcotest.(check string) name want e
    | Ok _ -> Alcotest.failf "%s: expected an error for %S" name text
  in
  check "non-numeric pid" {|line 1: "x" is not a process id|} "x none\n";
  check "negative owner" {|line 1: "-1" is not a process id|} "-1 none\n";
  check "negative slice member" {|line 1: "-2" is not a process id|}
    "0 slices { 0 -2 }\n";
  check "negative threshold member" {|line 1: "-1" is not a process id|}
    "0 threshold 1 of 0 -1\n";
  check "missing {" {|line 1: expected '{', found "1"|} "0 slices 1 }\n";
  check "unclosed {" "line 1: unclosed '{'" "0 slices { 1 2\n";
  check "slices with no set" "line 1: 'slices' needs at least one {...}"
    "0 slices\n";
  check "non-integer threshold" {|line 1: threshold "two" is not an integer|}
    "0 threshold two of 0 1\n";
  check "unknown keyword"
    "line 1: expected 'none', 'slices {...}...' or 'threshold T of ...'"
    "0 quorum 1\n";
  check "duplicate process" "line 2: duplicate process 0" "0 none\n0 none\n";
  check "comments and blanks count" {|line 4: "y" is not a process id|}
    "# header\n\n0 none\ny none\n";
  List.iter
    (fun path ->
      match Fbas_io.of_file path with
      | Error e ->
          Alcotest.(check bool)
            (Printf.sprintf "%S names the path" e)
            true
            (String.starts_with ~prefix:(path ^ ": ") e)
      | Ok _ -> Alcotest.failf "expected an error for %S" path)
    [ "/nonexistent/system.fbas"; Filename.current_dir_name ]

let suites =
  [
    ( "enum",
      [
        Alcotest.test_case "pbft4 families" `Quick test_pbft4;
        Alcotest.test_case "disjoint cliques" `Quick test_disjoint_cliques;
        Alcotest.test_case "fig2 with Algorithm 2 slices" `Quick
          test_fig2_algorithm2;
        Alcotest.test_case "search stats" `Quick test_stats_move;
        Alcotest.test_case "fixture provenance" `Quick
          test_fixture_provenance;
        Alcotest.test_case "fixture full-scale analysis" `Quick
          test_fixture_analysis;
        QCheck_alcotest.to_alcotest prop_minimal_quorums_equiv;
        QCheck_alcotest.to_alcotest prop_intersection_equiv;
        QCheck_alcotest.to_alcotest prop_despite_equiv;
        QCheck_alcotest.to_alcotest prop_blocking_equiv;
        Alcotest.test_case "blocking = reference walk, two words" `Quick
          test_blocking_reference;
        QCheck_alcotest.to_alcotest prop_splitting_equiv;
        QCheck_alcotest.to_alcotest prop_fbas_io_roundtrip;
        QCheck_alcotest.to_alcotest prop_fbas_io_threshold_roundtrip;
        Alcotest.test_case "fbas_io malformed inputs" `Quick
          test_fbas_io_malformed;
      ] );
  ]
