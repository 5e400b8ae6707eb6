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
  Alcotest.check pid_set "participants survive compilation"
    (Quorum.participants fig1_system)
    (D.to_set (Quorum.Compiled.participants_d c))

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
   an empty slice (or be [Explicit []]), and thresholds from 0 to
   above the member count, over pids up to 200. A query asks about
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
                   int_range 0 (Pid.Set.cardinal members + 2)
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

(* ---- the word view --------------------------------------------------

   Systems over up to 100 sparse pids below 200, and a member set [u]
   of at most 62 pids drawn from the participants and from strangers,
   so views range up to the full word. The word queries must agree
   with the dense ones on subsets of [u] (half of them [u] less a few
   members, where quorums are common), with [keep] empty, inside the
   candidate, or anywhere in [u]. *)

let gen_word_query =
  QCheck.Gen.(
    let* pids = list_size (int_range 1 100) (int_bound 200) in
    let pool = List.sort_uniq Int.compare pids in
    let subset_of_pool =
      let* l = list_size (int_range 1 6) (oneofl pool) in
      return (Pid.Set.of_list l)
    in
    let* assoc =
      flatten_l
        (List.map
           (fun i ->
             let* kind = int_bound 2 in
             match kind with
             | 0 ->
                 let* slices = list_size (int_bound 4) subset_of_pool in
                 return (Some (i, Slice.explicit slices))
             | 1 ->
                 let* members = subset_of_pool in
                 let* threshold =
                   int_range 0 (Pid.Set.cardinal members + 1)
                 in
                 return (Some (i, Slice.threshold ~members ~threshold))
             | _ -> return None)
           pool)
    in
    let* inside = list_size (int_bound 150) (oneofl pool) in
    let* strangers = list_size (int_bound 3) (int_bound 200) in
    let u =
      List.filteri (fun k _ -> k < 62) (List.sort_uniq Int.compare (inside @ strangers))
    in
    let subset l =
      let* keep = flatten_l (List.map (fun _ -> bool) l) in
      return (List.filteri (fun k _ -> List.nth keep k) l)
    in
    let nearly_all =
      match u with
      | [] -> return []
      | _ ->
          let* drop = list_size (int_bound 3) (oneofl u) in
          return (List.filter (fun i -> not (List.mem i drop)) u)
    in
    let* candidates =
      list_repeat 8
        (let* s = oneof [ subset u; nearly_all ] in
         let* keep = oneof [ return []; subset s; subset u ] in
         return (Pid.Set.of_list s, Pid.Set.of_list keep))
    in
    return
      ( Quorum.system_of_list (List.filter_map Fun.id assoc),
        Pid.Set.of_list u,
        candidates ))

let print_word (sys, u, candidates) =
  Format.asprintf "system=%a u=%a candidates=%s" (Pid.Map.pp Slice.pp) sys
    Pid.Set.pp u
    (String.concat "; "
       (List.map
          (fun (s, keep) ->
            Format.asprintf "%a keep %a" Pid.Set.pp s Pid.Set.pp keep)
          candidates))

(* The word of [s] in the view over [u]: bit k is the k-th smallest pid
   of [u]. *)
let bits_in u s =
  List.fold_left
    (fun (acc, k) i ->
      ((if Pid.Set.mem i s then acc lor (1 lsl k) else acc), k + 1))
    (0, 0) (Pid.Set.elements u)
  |> fst

let prop_word_view =
  QCheck.Test.make ~count:300 ~name:"word view = dense queries inside u"
    (QCheck.make ~print:print_word gen_word_query)
    (fun (sys, u, candidates) ->
      let c = Quorum.Compiled.compile sys in
      let w = Quorum.Compiled.words c (D.of_set u) in
      let bits = bits_in u in
      Quorum.Compiled.universe_w w = bits u
      && List.for_all
           (fun (s, keep) ->
             Pid.Set.equal (Quorum.Compiled.set_of_word w (bits s)) s
             && Bool.equal
                  (Quorum.Compiled.is_quorum_w w (bits s))
                  (Quorum.Compiled.is_quorum_d c (D.of_set s))
             &&
             let g =
               Quorum.Compiled.greatest_quorum_keeping_w w ~keep:(bits keep)
                 (bits s)
             in
             match
               Quorum.Compiled.greatest_quorum_keeping_d c
                 ~keep:(D.of_set keep) (D.of_set s)
             with
             | Some gd -> g = bits (D.to_set gd)
             | None -> g = -1)
           candidates)

let test_word_bound () =
  let c =
    Quorum.Compiled.compile
      (Quorum.system_of_list
         [ (0, Slice.threshold ~members:(Pid.Set.of_range 0 62) ~threshold:1) ])
  in
  Alcotest.(check int) "62 members: the full word" max_int
    (Quorum.Compiled.universe_w (Quorum.Compiled.words c (D.of_range 0 61)));
  Alcotest.check_raises "63 members"
    (Invalid_argument "Quorum.Compiled.words: more than 62 members")
    (fun () -> ignore (Quorum.Compiled.words c (D.of_range 0 62)))

(* ---- keep first ---------------------------------------------------------

   On the chain 1: {1,2}, 2: {2,3}, 3: {3,4}, where 4 declares nothing,
   the rounds on {1,2,3} drop 3, then 2, then 1. Both kernels must prune
   whenever [keep] is lost, in whichever round, or is not inside the
   candidate, and answer alike. *)

let chain extra =
  Quorum.system_of_list
    (List.map
       (fun (i, slice) -> (i, Slice.explicit [ set slice ]))
       ([ (1, [ 1; 2 ]); (2, [ 2; 3 ]); (3, [ 3; 4 ]) ] @ extra))

(* [greatest_quorum_keeping_d] and [_w], the word view over [u], on one
   query; [None] is the prune. *)
let keeping_both sys ~u ~keep s =
  let c = Quorum.Compiled.compile sys in
  let w = Quorum.Compiled.words c (D.of_set u) in
  let dense =
    Quorum.Compiled.greatest_quorum_keeping_d c ~keep:(D.of_set keep)
      (D.of_set s)
  in
  let word =
    match
      Quorum.Compiled.greatest_quorum_keeping_w w ~keep:(bits_in u keep)
        (bits_in u s)
    with
    | -1 -> None
    | g -> Some (Quorum.Compiled.set_of_word w g)
  in
  (Option.map D.to_set dense, word)

let test_keeping_keep_first () =
  let check name sys ~u ~keep s expected =
    let dense, word = keeping_both sys ~u:(set u) ~keep:(set keep) (set s) in
    Alcotest.(check (option pid_set)) (name ^ ", dense") expected dense;
    Alcotest.(check (option pid_set)) (name ^ ", word = dense") dense word
  in
  let s = [ 1; 2; 3 ] in
  check "keep {1}, lost in round 3" (chain []) ~u:s ~keep:[ 1 ] s None;
  check "keep {2}, lost in round 2" (chain []) ~u:s ~keep:[ 2 ] s None;
  check "empty keep" (chain []) ~u:s ~keep:[] s (Some Pid.Set.empty);
  let sys = chain [ (4, [ 4 ]) ] and s = [ 1; 2; 3; 4 ] in
  check "keep {1} with 4: {4}" sys ~u:s ~keep:[ 1 ] s (Some (set s));
  (* {4} is a quorum, and 5 lies inside [u] but outside it. 5's one
     slice {4} lies inside the candidate, so only [keep ⊄ s] prunes. *)
  let sys = chain [ (4, [ 4 ]); (5, [ 4 ]) ] in
  check "keep outside s" sys ~u:[ 1; 2; 3; 4; 5 ] ~keep:[ 5 ] [ 4 ] None

(* ---- delete on the compiled form ---------------------------------------

   [Compiled.delete c b] against the compiled tree-set deletion
   ([Oracle.Quorum.delete]): the same participants, domains, quorum
   answers, greatest quorums and v-blocking answers, on every pid up to
   201 and on probes that may name deleted nodes. *)

let agrees_after_delete sys b probes =
  let c = Quorum.Compiled.delete (Quorum.Compiled.compile sys) b in
  let sys' = Oracle.Quorum.delete sys b in
  let c' = Quorum.Compiled.compile sys' in
  D.equal (Quorum.Compiled.participants_d c) (D.of_set (Quorum.participants sys'))
  && List.for_all
       (fun i ->
         D.equal (Quorum.Compiled.domain_d c i) (Quorum.Compiled.domain_d c' i))
       (List.init 202 Fun.id)
  && List.for_all
       (fun p ->
         let pd = D.of_set p in
         Bool.equal (Quorum.Compiled.is_quorum c p) (Quorum.Compiled.is_quorum c' p)
         && Pid.Set.equal
              (Quorum.Compiled.greatest_quorum_within c p)
              (Quorum.Compiled.greatest_quorum_within c' p)
         && List.for_all
              (fun i ->
                Bool.equal
                  (Quorum.Compiled.is_v_blocking_d c i pd)
                  (Quorum.Compiled.is_v_blocking_d c' i pd))
              (List.init 202 Fun.id))
       probes

let gen_delete_query =
  QCheck.Gen.(
    let* sys, _, b = gen_blocking_query in
    (* Ids no system names, far past the bound of the dense kernels. *)
    let* far = list_size (int_bound 2) (int_range 100_000_000 max_int) in
    let b = Pid.Set.union b (Pid.Set.of_list far) in
    let pool = 0 :: Pid.Set.elements (Quorum.participants sys) in
    let* probes =
      list_repeat 4
        (let* l =
           list_size (int_bound 10) (oneof [ oneofl pool; int_bound 200 ])
         in
         return (Pid.Set.of_list l))
    in
    return (sys, b, probes))

let prop_delete =
  QCheck.Test.make ~count:300 ~name:"Compiled.delete = compiled tree-set delete"
    (QCheck.make
       ~print:(fun (sys, b, probes) ->
         Format.asprintf "system=%a b=%a probes=%s" (Pid.Map.pp Slice.pp) sys
           Pid.Set.pp b
           (String.concat "; " (List.map Pid.Set.to_string probes)))
       gen_delete_query)
    (fun (sys, b, probes) -> agrees_after_delete sys b probes)

let test_delete_cuts () =
  (* [b] cuts the threshold class of 1 and 2 ({1,2,3} loses 2, so 2 of
     3 becomes 1 of {1,3}) and empties 3's slice {4}, which every
     candidate then meets; 4's slice {4,5} keeps 5. *)
  let sys =
    Quorum.system_of_list
      [
        (1, Slice.threshold ~members:(set [ 1; 2; 3 ]) ~threshold:2);
        (2, Slice.threshold ~members:(set [ 1; 2; 3 ]) ~threshold:2);
        (3, Slice.explicit [ set [ 4 ]; set [ 1; 5 ] ]);
        (5, Slice.explicit [ set [ 4; 5 ] ]);
      ]
  in
  let b = set [ 2; 4 ] in
  let c = Quorum.Compiled.delete (Quorum.Compiled.compile sys) b in
  Alcotest.check pid_set "participants" (set [ 1; 3; 5 ])
    (D.to_set (Quorum.Compiled.participants_d c));
  Alcotest.(check bool) "{1} meets 1 of {1,3}" true
    (Quorum.Compiled.is_quorum c (set [ 1 ]));
  Alcotest.(check bool) "{3} meets an emptied slice" true
    (Quorum.Compiled.is_quorum c (set [ 3 ]));
  Alcotest.(check bool) "{5} meets {5}" true
    (Quorum.Compiled.is_quorum c (set [ 5 ]));
  Alcotest.(check bool) "a deleted node is in no quorum" false
    (Quorum.Compiled.is_quorum c (set [ 1; 2 ]));
  Alcotest.check pid_set "class cut to {1,3}" (set [ 1; 3 ])
    (D.to_set (Quorum.Compiled.domain_d c 1));
  Alcotest.(check bool) "nothing blocks an emptied slice" false
    (Quorum.Compiled.is_v_blocking_d c 3 (D.of_set (set [ 1; 5 ])));
  Alcotest.(check bool) "{1,3} blocks 1 of {1,3}" true
    (Quorum.Compiled.is_v_blocking_d c 1 (D.of_set (set [ 1; 3 ])));
  Alcotest.(check bool) "= compiled tree-set delete" true
    (agrees_after_delete sys b
       (List.map set [ []; [ 1 ]; [ 3 ]; [ 1; 3 ]; [ 1; 2; 3 ]; [ 3; 5 ]; [ 1; 3; 4; 5 ] ]))

(* Words allocated, minor and major, not counting promotions twice. *)
let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let test_delete_far_id () =
  (* A far id deletes nothing, so [delete] must not size a bitset by it:
     4e8 would take 6.3 M words. *)
  let members = set [ 0; 1; 2; 3 ] in
  let sys =
    Quorum.system_of_list
      (List.map
         (fun i -> (i, Slice.threshold ~members ~threshold:3))
         (Pid.Set.elements members))
  in
  let c = Quorum.Compiled.compile sys in
  let b = set [ 0; 400_000_000 ] in
  let before = allocated_words () in
  let d = Quorum.Compiled.delete c b in
  let words = allocated_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words allocated" words)
    true (words < 100_000.);
  Alcotest.(check bool) "answers as delete c {0}" true
    (D.equal (Quorum.Compiled.participants_d d)
       (Quorum.Compiled.participants_d (Quorum.Compiled.delete c (set [ 0 ])))
    && agrees_after_delete sys b
         (List.map set [ [ 1; 2 ]; [ 0; 1; 2 ]; [ 1; 2; 3 ] ]))

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
        QCheck_alcotest.to_alcotest prop_word_view;
        Alcotest.test_case "word view holds 62 members" `Quick test_word_bound;
        Alcotest.test_case "keeping tests keep first, in both kernels" `Quick
          test_keeping_keep_first;
        QCheck_alcotest.to_alcotest prop_delete;
        Alcotest.test_case "delete cuts a class and empties a slice" `Quick
          test_delete_cuts;
        Alcotest.test_case "delete ignores an id the system never names"
          `Quick test_delete_far_id;
      ] );
  ]
