(* The first-class Quorum.Compiled API: compile-once handles must
   agree everywhere with the seed's tree-set Algorithm 1
   ([Oracle.Quorum]). *)

open Graphkit
open Fbqs
module D = Pid.Dense_set

let set = Pid.Set.of_list
let pid_set = Alcotest.testable Pid.Set.pp Pid.Set.equal

let fig1_system =
  Quorum.system_of_list
    (List.map
       (fun (i, slices) -> (i, Slice.explicit slices))
       Graphkit.Builtin.fig1_slices)

let test_compiled_matches_oracle_on_fig1 () =
  let c = Quorum.Compiled.compile fig1_system in
  let candidates =
    [
      set [ 5; 6; 7 ];
      set [ 1; 2; 4; 5; 6; 7 ];
      set [ 1; 2; 5; 6; 7 ];
      set [ 5; 6; 7; 8 ];
      Pid.Set.empty;
      Pid.Set.of_range 1 7;
    ]
  in
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "is_quorum agrees on %s" (Pid.Set.to_string s))
        (Oracle.Quorum.is_quorum fig1_system s)
        (Quorum.Compiled.is_quorum c s);
      Alcotest.check pid_set
        (Printf.sprintf "greatest_quorum_within agrees on %s"
           (Pid.Set.to_string s))
        (Oracle.Quorum.greatest_quorum_within fig1_system s)
        (Quorum.Compiled.greatest_quorum_within c s))
    candidates;
  Alcotest.(check bool) "system round-trips" true
    (Quorum.Compiled.system c == fig1_system)

(* Random slice systems: processes 1..n, each declaring one or two
   random explicit slices over the universe. *)
let gen_system =
  QCheck.Gen.(
    let* n = int_range 3 7 in
    let universe = List.init n (fun i -> i + 1) in
    let slice =
      let* members = List.fold_right
        (fun i acc ->
          let* keep = bool in
          let* rest = acc in
          return (if keep then i :: rest else rest))
        universe (return [])
      in
      return (Pid.Set.of_list members)
    in
    let* assoc =
      flatten_l
        (List.map
           (fun i ->
             let* s1 = slice in
             let* s2 = slice in
             return (i, Slice.explicit [ s1; s2 ]))
           universe)
    in
    let* probe = slice in
    return (Quorum.system_of_list assoc, probe))

let arb_system =
  QCheck.make
    ~print:(fun (sys, probe) ->
      Printf.sprintf "system over %s, probe %s"
        (Pid.Set.to_string (Quorum.participants sys))
        (Pid.Set.to_string probe))
    gen_system

let prop_oracle_agrees_with_compiled =
  QCheck.Test.make ~count:200
    ~name:"deprecated wrappers = Compiled API on random systems" arb_system
    (fun (sys, probe) ->
      let c = Quorum.Compiled.compile sys in
      Oracle.Quorum.is_quorum sys probe = Quorum.Compiled.is_quorum c probe
      && Pid.Set.equal
           (Oracle.Quorum.greatest_quorum_within sys probe)
           (Quorum.Compiled.greatest_quorum_within c probe)
      && Pid.Set.for_all
           (fun i ->
             Oracle.Quorum.is_v_blocking sys i probe
             = Quorum.Compiled.is_v_blocking_d c i (D.of_set probe))
           (Quorum.participants sys))

(* ---- systems over sparse pids up to 200 --------------------------------

   Explicit slices here span up to four words, so the packed slice
   families are padded and candidates are often shorter than a
   family's stride. Each process declares explicit slices (possibly
   [Explicit []]), a threshold (possibly unsatisfiable) or nothing. *)

let gen_wide_system =
  QCheck.Gen.(
    let* pids = list_size (int_range 2 10) (int_bound 200) in
    let pool = List.sort_uniq Int.compare pids in
    let subset_of_pool =
      let* l = list_size (int_range 1 4) (oneofl pool) in
      return (Pid.Set.of_list l)
    in
    let* assoc =
      flatten_l
        (List.map
           (fun i ->
             let* kind = int_bound 2 in
             match kind with
             | 0 ->
                 let* slices = list_size (int_bound 3) subset_of_pool in
                 return (Some (i, Slice.explicit slices))
             | 1 ->
                 let* members = subset_of_pool in
                 let* threshold = int_bound (Pid.Set.cardinal members + 1) in
                 return (Some (i, Slice.threshold ~members ~threshold))
             | _ -> return None)
           pool)
    in
    return (pool, Quorum.system_of_list (List.filter_map Fun.id assoc)))

(* A candidate [s] (participants plus strangers up to 200) and a [keep]
   that is empty, inside [s], or drawn from all participants. *)
let gen_wide_query =
  QCheck.Gen.(
    let* pool, sys = gen_wide_system in
    let* s = list_size (int_bound 10) (oneofl pool) in
    let* strangers = list_size (int_bound 2) (int_bound 200) in
    let s = s @ strangers in
    let* keep =
      oneof
        [
          return [];
          list_size (int_bound 3)
            (oneofl (match s with [] -> pool | _ -> s));
          list_size (int_bound 3) (oneofl pool);
        ]
    in
    return (sys, Pid.Set.of_list s, Pid.Set.of_list keep))

let print_wide (sys, s, keep) =
  Format.asprintf "system=%a s=%a keep=%a" (Pid.Map.pp Slice.pp) sys
    Pid.Set.pp s Pid.Set.pp keep

let prop_keeping_decides =
  QCheck.Test.make ~count:500
    ~name:"greatest_quorum_keeping_d = within_d, then keep test"
    (QCheck.make ~print:print_wide gen_wide_query)
    (fun (sys, s, keep) ->
      let c = Quorum.Compiled.compile sys in
      let s = D.of_set s and keep = D.of_set keep in
      let g = Quorum.Compiled.greatest_quorum_within_d c s in
      D.equal g
        (D.of_set (Oracle.Quorum.greatest_quorum_within sys (D.to_set s)))
      &&
      match Quorum.Compiled.greatest_quorum_keeping_d c ~keep s with
      | Some g' -> D.subset keep g && D.equal g g'
      | None -> not (D.subset keep g))

let prop_compiled_domain =
  QCheck.Test.make ~count:200 ~name:"compiled domain = Slice.domain"
    (QCheck.make
       ~print:(fun (_, sys) -> Format.asprintf "%a" (Pid.Map.pp Slice.pp) sys)
       gen_wide_system)
    (fun (_, sys) ->
      let c = Quorum.Compiled.compile sys in
      List.for_all
        (fun i ->
          D.equal
            (Quorum.Compiled.domain_d c i)
            (D.of_set (Slice.domain (Quorum.slices_of sys i))))
        (List.init 202 Fun.id))

(* Systems for the v-blocking test: explicit slices that may include
   an empty slice (or be [Explicit []]), and thresholds from negative
   to above the member count, over pids up to 200. A query asks about
   participants and absent pids alike. *)
let gen_blocking_query =
  QCheck.Gen.(
    let* pids = list_size (int_range 1 10) (int_bound 200) in
    let pool = List.sort_uniq Int.compare pids in
    let subset_of_pool =
      let* l = list_size (int_bound 4) (oneofl pool) in
      return (Pid.Set.of_list l)
    in
    let* assoc =
      flatten_l
        (List.map
           (fun i ->
             let* kind = int_bound 2 in
             match kind with
             | 0 ->
                 let* slices = list_size (int_bound 3) subset_of_pool in
                 return (Some (i, Slice.explicit slices))
             | 1 ->
                 let* members = subset_of_pool in
                 let* threshold =
                   int_range (-2) (Pid.Set.cardinal members + 2)
                 in
                 return (Some (i, Slice.threshold ~members ~threshold))
             | _ -> return None)
           pool)
    in
    let* i = oneof [ oneofl pool; int_bound 200 ] in
    let* b = list_size (int_bound 6) (oneof [ oneofl pool; int_bound 200 ]) in
    return
      (Quorum.system_of_list (List.filter_map Fun.id assoc), i, Pid.Set.of_list b))

let prop_is_v_blocking_d =
  QCheck.Test.make ~count:1000 ~name:"is_v_blocking_d = Quorum.is_v_blocking"
    (QCheck.make
       ~print:(fun (sys, i, b) ->
         Format.asprintf "system=%a i=%d b=%a" (Pid.Map.pp Slice.pp) sys i
           Pid.Set.pp b)
       gen_blocking_query)
    (fun (sys, i, b) ->
      Bool.equal
        (Quorum.Compiled.is_v_blocking_d (Quorum.Compiled.compile sys) i
           (D.of_set b))
        (Oracle.Quorum.is_v_blocking sys i b))

let test_is_v_blocking_d_edges () =
  let m = set [ 1; 2; 3 ] in
  let sys =
    Quorum.system_of_list
      [
        (1, Slice.explicit []);
        (2, Slice.explicit [ set [ 3 ]; Pid.Set.empty ]);
        (3, Slice.threshold ~members:m ~threshold:0);
        (4, Slice.threshold ~members:m ~threshold:(-1));
        (5, Slice.threshold ~members:m ~threshold:4);
        (6, Slice.threshold ~members:m ~threshold:2);
        (7, Slice.explicit [ set [ 1; 150 ]; set [ 2 ] ]);
      ]
  in
  let c = Quorum.Compiled.compile sys in
  let b = set [ 1; 2; 3; 150 ] in
  List.iter
    (fun i ->
      Alcotest.(check bool)
        (Printf.sprintf "pid %d" i)
        (Oracle.Quorum.is_v_blocking sys i b)
        (Quorum.Compiled.is_v_blocking_d c i (D.of_set b)))
    [ 1; 2; 3; 4; 5; 6; 7; 8; 200 ];
  Alcotest.(check bool) "2 of 3 blocks any 2 of 3" true
    (Quorum.Compiled.is_v_blocking_d c 6 (D.of_set (set [ 1; 3 ])));
  Alcotest.(check bool) "a slice avoids 150" false
    (Quorum.Compiled.is_v_blocking_d c 7 (D.of_set (set [ 150 ])))

let suites =
  [
    ( "quorum_compiled",
      [
        Alcotest.test_case "Compiled = wrappers on fig1" `Quick
          test_compiled_matches_oracle_on_fig1;
        QCheck_alcotest.to_alcotest prop_oracle_agrees_with_compiled;
        QCheck_alcotest.to_alcotest prop_keeping_decides;
        QCheck_alcotest.to_alcotest prop_compiled_domain;
        QCheck_alcotest.to_alcotest prop_is_v_blocking_d;
        Alcotest.test_case "is_v_blocking_d edge cases" `Quick
          test_is_v_blocking_d_edges;
      ] );
  ]
