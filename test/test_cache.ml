(* Core.Cache: the shared LRU layer behind the compiled-handle memos
   and the daemon's file/response caches (DESIGN.md §14). The qcheck
   properties check the cache against a reference model: an association
   list kept in most-recently-used-first order. *)

let mk ?(capacity = 4) () =
  Core.Cache.create ~equal:Int.equal ~name:"test" ~capacity ()

(* Reference model: run [keys] through a memo that computes [k * 7],
   returning the expected MRU-first contents plus expected counters. *)
let model ~capacity keys =
  let entries = ref [] and hits = ref 0 and evictions = ref 0 in
  List.iter
    (fun k ->
      match List.assoc_opt k !entries with
      | Some v ->
          incr hits;
          entries := (k, v) :: List.remove_assoc k !entries
      | None ->
          entries := (k, k * 7) :: !entries;
          if List.length !entries > capacity then begin
            incr evictions;
            entries := List.filteri (fun i _ -> i < capacity) !entries
          end)
    keys;
  (!entries, !hits, !evictions)

let run_keys ~capacity keys =
  let c = mk ~capacity () in
  List.iter (fun k -> ignore (Core.Cache.find_or_add c k (fun () -> k * 7))) keys;
  c

let test_create_rejects_bad_capacity () =
  Alcotest.check_raises "capacity 0"
    (Invalid_argument "Core.Cache.create test: capacity < 1") (fun () ->
      ignore (mk ~capacity:0 ()))

let test_memoizes () =
  let c = mk () in
  let computed = ref 0 in
  let get () =
    Core.Cache.find_or_add c 1 (fun () ->
        incr computed;
        42)
  in
  Alcotest.(check int) "first" 42 (get ());
  Alcotest.(check int) "second" 42 (get ());
  Alcotest.(check int) "computed once" 1 !computed

let test_eviction_order () =
  let c = mk ~capacity:2 () in
  let touch k = ignore (Core.Cache.find_or_add c k (fun () -> k * 7)) in
  touch 1;
  touch 2;
  touch 3;
  (* 1 is least recently used and falls out *)
  Alcotest.(check bool) "1 evicted" true (Core.Cache.find_opt c 1 = None);
  touch 2;
  (* promoting 2 makes 3 the victim of the next insertion *)
  touch 4;
  Alcotest.(check bool) "3 evicted" true (Core.Cache.find_opt c 3 = None);
  Alcotest.(check bool) "2 survives" true (Core.Cache.find_opt c 2 <> None)

let test_shrink_evicts () =
  let c = run_keys ~capacity:4 [ 1; 2; 3; 4 ] in
  Core.Cache.set_capacity c 2;
  let s = Core.Cache.stats c in
  Alcotest.(check int) "length clamped" 2 s.Core.Cache.length;
  Alcotest.(check int) "evictions counted" 2 s.Core.Cache.evictions;
  Alcotest.(check (list int)) "MRU half kept" [ 4; 3 ]
    (List.map fst (Core.Cache.to_list c))

let test_stats_json_shape () =
  let c = run_keys ~capacity:2 [ 1; 1; 2; 3 ] in
  Alcotest.(check string) "stats dump"
    {|{"hits":1,"misses":3,"evictions":1,"length":2,"capacity":2}|}
    (Obs.Json.to_string (Core.Cache.stats_to_json (Core.Cache.stats c)))

(* [stats] follows every operation: lookups, insertions, evictions by
   insertion and by shrinking. *)
let test_stats_in_step () =
  let c = mk ~capacity:2 () in
  let check what (hits, misses, evictions, length) =
    let s = Core.Cache.stats c in
    Alcotest.(check (list int)) what
      [ hits; misses; evictions; length ]
      Core.Cache.[ s.hits; s.misses; s.evictions; s.length ]
  in
  check "fresh" (0, 0, 0, 0);
  ignore (Core.Cache.find_or_add c 1 (fun () -> 7));
  check "miss then insert" (0, 1, 0, 1);
  ignore (Core.Cache.find_or_add c 1 (fun () -> 7));
  check "hit" (1, 1, 0, 1);
  ignore (Core.Cache.find_or_add c 2 (fun () -> 14));
  ignore (Core.Cache.find_or_add c 3 (fun () -> 21));
  check "insert beyond capacity evicts" (1, 3, 1, 2);
  Core.Cache.set_capacity c 1;
  check "shrinking evicts" (1, 3, 2, 1);
  Core.Cache.add c 4 28;
  check "add counts no lookup" (1, 3, 3, 1)

let prop_matches_model =
  QCheck.Test.make ~count:200 ~name:"cache contents match the LRU model"
    QCheck.(pair (int_range 1 5) (small_list (int_bound 7)))
    (fun (capacity, keys) ->
      let c = run_keys ~capacity keys in
      let expected, _, _ = model ~capacity keys in
      List.map fst (Core.Cache.to_list c) = List.map fst expected
      && List.for_all
           (fun (k, v) -> Core.Cache.find_opt c k = Some v)
           expected)

let prop_lookup_accounting =
  QCheck.Test.make ~count:200
    ~name:"hits + misses = lookups, hits and evictions match the model"
    QCheck.(pair (int_range 1 5) (small_list (int_bound 7)))
    (fun (capacity, keys) ->
      let c = run_keys ~capacity keys in
      let _, hits, evictions = model ~capacity keys in
      let s = Core.Cache.stats c in
      s.Core.Cache.hits + s.Core.Cache.misses = List.length keys
      && s.Core.Cache.hits = hits
      && s.Core.Cache.evictions = evictions)

let prop_capacity_bound =
  QCheck.Test.make ~count:200
    ~name:"occupancy never exceeds capacity and matches to_list"
    QCheck.(pair (int_range 1 5) (small_list (int_bound 7)))
    (fun (capacity, keys) ->
      let c = run_keys ~capacity keys in
      let s = Core.Cache.stats c in
      s.Core.Cache.length <= capacity
      && s.Core.Cache.length = List.length (Core.Cache.to_list c)
      && s.Core.Cache.capacity = capacity)

let suites =
  [
    ( "cache",
      [
        Alcotest.test_case "create rejects capacity < 1" `Quick
          test_create_rejects_bad_capacity;
        Alcotest.test_case "find_or_add memoizes" `Quick test_memoizes;
        Alcotest.test_case "LRU eviction order" `Quick test_eviction_order;
        Alcotest.test_case "shrinking capacity evicts" `Quick
          test_shrink_evicts;
        Alcotest.test_case "stats JSON shape" `Quick test_stats_json_shape;
        Alcotest.test_case "metrics stay in step" `Quick test_stats_in_step;
        QCheck_alcotest.to_alcotest prop_matches_model;
        QCheck_alcotest.to_alcotest prop_lookup_accounting;
        QCheck_alcotest.to_alcotest prop_capacity_bound;
      ] );
  ]
