(* The fork backend of Simkit.Exec (Simkit.Pool), driven directly:
   the chunk-token budget guard, the warm pool's lifecycle, a job that
   reaches the workers by closure Marshal or by fork, recovery from dead
   workers, and the executor contract (input order, crash propagation,
   any worker count, byte-identity with List.map on toy and real
   workloads).

   OCaml 5 refuses Unix.fork once a second domain has been started, and
   the main test executable starts the domain pool, so these cases run
   in this executable, which never starts a domain — on OCaml 4.14 and
   5.x alike. *)

module Exec = Simkit.Exec
module Pool = Simkit.Pool

let int_list = Alcotest.(list int)

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  go 0

let test_no_domain_pool () =
  Alcotest.(check int) "no worker pool running" 0 (Exec.Pool.size ())

let test_chunk_budget_guard () =
  let xs n = List.init n Fun.id in
  (* exactly at the budget: fine *)
  Alcotest.check int_list "256 chunks fit"
    (List.map succ (xs Pool.max_chunks))
    (Pool.map_persistent ~chunk:1 ~workers:2 succ (xs Pool.max_chunks));
  (* one over: a clear refusal, not a silent re-chunk *)
  (try
     ignore
       (Pool.map_persistent ~chunk:1 ~workers:2 succ
          (xs (Pool.max_chunks + 1)));
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument msg ->
     Alcotest.(check bool) "names the caller" true
       (contains ~affix:"Simkit.Pool.map_persistent" msg);
     Alcotest.(check bool) "suggests a chunk size" true
       (contains ~affix:"raise ~chunk" msg));
  (* Exec.map pre-clamps instead of surfacing the refusal: 10_000 jobs
     at jobs=8 default to 257 chunks. Only a build without domains
     routes Exec.map here. *)
  if not Exec.domains_available then
    Alcotest.check int_list "Exec.map re-chunks transparently"
      (List.map succ (xs 10_000))
      (Exec.map ~jobs:8 succ (xs 10_000))

let test_persistent_fork_lifecycle () =
  Pool.shutdown_persistent ();
  let xs = List.init 20 Fun.id in
  let expected = List.map succ xs in
  Alcotest.check int_list "cold batch" expected
    (Pool.map_persistent ~chunk:2 ~workers:2 succ xs);
  let w = Pool.persistent_workers () in
  Alcotest.(check bool) "workers parked between batches" true (w >= 2);
  let b = Pool.persistent_batches () in
  Alcotest.check int_list "warm batch, same workers" expected
    (Pool.map_persistent ~chunk:2 ~workers:2 succ xs);
  Alcotest.(check int) "no respawn on reuse" w (Pool.persistent_workers ());
  Alcotest.(check bool) "batch counted" true (Pool.persistent_batches () > b);
  (* a failing job leaves the pool warm *)
  (try
     ignore
       (Pool.map_persistent ~chunk:1 ~workers:2
          (fun x -> if x = 5 then failwith "kaput" else x)
          xs);
     Alcotest.fail "expected Job_failed"
   with Pool.Job_failed msg ->
     Alcotest.(check bool) "job error transported" true
       (contains ~affix:"kaput" msg));
  Alcotest.(check int) "still the same workers after a job failure" w
    (Pool.persistent_workers ());
  Pool.shutdown_persistent ();
  Alcotest.(check int) "drained" 0 (Pool.persistent_workers ())

(* A job whose closure captures a channel, which Marshal refuses. *)
let channel_capture =
  let ic = stdin in
  fun x ->
    if x < 0 then ignore (input_char ic);
    x * 3

let test_unmarshalable_capture_falls_back () =
  (* A channel capture cannot cross the command pipe by Marshal; the
     pool is forked into the job instead, and the call still returns
     List.map's bytes. *)
  let xs = List.init 12 Fun.id in
  Alcotest.check int_list "fallback result identical"
    (List.map channel_capture xs)
    (Pool.map_persistent ~chunk:1 ~workers:2 channel_capture xs)

let prop_persistent_matches_list_map =
  QCheck.Test.make ~count:30
    ~name:"Pool.map_persistent = List.map (any chunk, any workers)"
    QCheck.(triple (small_list small_int) (int_range 1 5) (int_range 1 4))
    (fun (xs, chunk, workers) ->
      let f x = (x * 31) land 255 in
      Pool.map_persistent ~chunk ~workers f xs = List.map f xs)

(* The executor contract. [workers] plays the part of Exec.map's
   [~jobs]. *)
let map = Pool.map_persistent

let test_empty_and_singleton () =
  Alcotest.check int_list "empty list" []
    (map ~chunk:1 ~workers:4 (fun x -> x + 1) []);
  Alcotest.check int_list "singleton" [ 43 ]
    (map ~chunk:1 ~workers:4 (fun x -> x + 1) [ 42 ])

let test_workers_degenerate () =
  let xs = List.init 10 Fun.id in
  let f x = (x * x) - (3 * x) in
  List.iter
    (fun workers ->
      Alcotest.check int_list
        (Printf.sprintf "workers=%d" workers)
        (List.map f xs)
        (map ~chunk:1 ~workers f xs))
    [ -1; 0; 1; 2; 3; 10; 64 ]

let test_order_preserved_more_workers_than_items () =
  Alcotest.(check (list string))
    "order follows input, not workers" [ "c!"; "a!"; "b!" ]
    (map ~chunk:1 ~workers:16 (fun s -> s ^ "!") [ "c"; "a"; "b" ])

let test_closure_capture () =
  (* The workers were forked from this binary, so a marshalled
     closure's code pointers hold there too; a worker forked to grow
     the pool inherits the closure instead. *)
  let shift = ref 7 in
  let adder x = x + !shift in
  Alcotest.check int_list "captured state visible in workers" [ 8; 9; 10 ]
    (map ~chunk:1 ~workers:2 adder [ 1; 2; 3 ])

let test_crash_propagates () =
  (* A raising job must surface as Job_failed in the parent — and must
     not hang the pool or leave siblings unreaped. *)
  match
    map ~chunk:1 ~workers:3
      (fun x -> if x = 5 then failwith "boom" else x)
      (List.init 9 Fun.id)
  with
  | _ -> Alcotest.fail "expected Job_failed"
  | exception Pool.Job_failed msg ->
      Alcotest.(check bool)
        "failure text carries the exception" true
        (contains ~affix:"boom" msg)

let prop_maps_equal_list_map =
  QCheck.Test.make ~count:100 ~name:"Pool.map = List.map (any jobs)"
    QCheck.(pair (small_list int) (int_range 1 8))
    (fun (xs, workers) ->
      let f x = (x * 31) + 1 in
      map ~chunk:1 ~workers f xs = List.map f xs)

(* A real job: one E8 sample of the Corollary 2 stack (sink detector,
   then SCP) on a seeded Byzantine-safe graph, reduced to its verdict. *)
let e8_run k =
  let seed = 6 + k in
  let graph, _sink =
    Graphkit.Generators.random_byzantine_safe ~seed ~f:1 ~sink_size:5
      ~non_sink:3 ()
  in
  Stellar_cup.Pipeline.scp_with_sink_detector
    ~cfg:(Simkit.Run_config.with_seed seed Simkit.Run_config.default)
    ~graph ~f:1
    ~faulty:(Graphkit.Generators.random_faulty_set ~seed ~f:1 graph)
    ~initial_value_of:(fun i -> Scp.Value.of_ints [ i ])
    ()

let test_e8_runs () =
  let ks = List.init 16 Fun.id in
  let expected = List.map e8_run ks in
  Alcotest.(check bool)
    "map_persistent = List.map" true
    (Pool.map_persistent ~chunk:1 ~workers:2 e8_run ks = expected)

let test_channel_capture_stays_parked () =
  Pool.shutdown_persistent ();
  let xs = List.init 12 Fun.id in
  (* A warm pool wider than the next batch. *)
  Alcotest.check int_list "warm-up batch" (List.map succ xs)
    (map ~chunk:1 ~workers:3 succ xs);
  Alcotest.check int_list "channel-capturing batch"
    (List.map channel_capture xs)
    (map ~chunk:1 ~workers:2 channel_capture xs);
  (* A job that marshals would have reused all three workers. *)
  Alcotest.(check int)
    "parked at that batch's worker count" 2 (Pool.persistent_workers ());
  let b = Pool.persistent_batches () in
  Alcotest.check int_list "next marshalable batch" (List.map succ xs)
    (map ~chunk:1 ~workers:2 succ xs);
  Alcotest.(check int) "on the same pool" 2 (Pool.persistent_workers ());
  Alcotest.(check int) "one more batch" (b + 1) (Pool.persistent_batches ())

let test_killed_parked_workers () =
  Pool.shutdown_persistent ();
  let xs = List.init 8 Fun.id in
  let parent = Unix.getpid () in
  (* Each job sleeps, so both workers most likely claim a share of the
     batch; the checks below hold however many of them were killed. *)
  let pid_of _ =
    Unix.sleepf 0.01;
    Unix.getpid ()
  in
  let killed = List.sort_uniq Int.compare (map ~chunk:1 ~workers:2 pid_of xs) in
  Alcotest.(check bool)
    "pids are workers'" true
    (killed <> [] && not (List.mem parent killed));
  List.iter (fun pid -> Unix.kill pid Sys.sigkill) killed;
  Alcotest.check int_list "next batch" (List.map succ xs)
    (map ~chunk:1 ~workers:2 succ xs);
  Alcotest.(check int) "back at its worker count" 2 (Pool.persistent_workers ());
  Alcotest.(check bool)
    "answered by fresh workers" true
    (List.for_all
       (fun pid -> not (List.mem pid killed))
       (map ~chunk:1 ~workers:2 pid_of xs))

let test_job_kills_its_worker () =
  let parent = Unix.getpid () in
  let xs = List.init 6 Fun.id in
  (match
     map ~chunk:1 ~workers:2
       (fun x ->
         if x = 3 && Unix.getpid () <> parent then
           Unix.kill (Unix.getpid ()) Sys.sigkill;
         x)
       xs
   with
  | _ -> Alcotest.fail "expected Job_failed"
  | exception Pool.Job_failed _ -> ());
  Alcotest.check int_list "next call succeeds" (List.map succ xs)
    (map ~chunk:1 ~workers:2 succ xs)

let () =
  Alcotest.run "stellar_cup_fork"
    [
      (* 18 characters, like main's longest suite name, so that both
         executables truncate long case names at the same column. *)
      ( "fork-pool-protocol",
        [
          Alcotest.test_case "no domain pool in this process" `Quick
            test_no_domain_pool;
          Alcotest.test_case "chunk-token budget guard" `Quick
            test_chunk_budget_guard;
          Alcotest.test_case "persistent fork pool lifecycle" `Quick
            test_persistent_fork_lifecycle;
          Alcotest.test_case "unmarshalable capture falls back" `Quick
            test_unmarshalable_capture_falls_back;
          QCheck_alcotest.to_alcotest prop_persistent_matches_list_map;
          Alcotest.test_case "16 E8 runs = List.map" `Quick test_e8_runs;
          Alcotest.test_case "channel capture leaves the pool parked" `Quick
            test_channel_capture_stays_parked;
          Alcotest.test_case "killed parked workers are re-forked" `Quick
            test_killed_parked_workers;
          Alcotest.test_case "job that kills its worker fails" `Quick
            test_job_kills_its_worker;
        ] );
      ( "pool",
        [
          Alcotest.test_case "empty and singleton inputs" `Quick
            test_empty_and_singleton;
          Alcotest.test_case "degenerate and oversubscribed jobs" `Quick
            test_workers_degenerate;
          Alcotest.test_case "order preserved with jobs > items" `Quick
            test_order_preserved_more_workers_than_items;
          Alcotest.test_case "closures inherited through fork" `Quick
            test_closure_capture;
          Alcotest.test_case "worker crash raises Job_failed" `Quick
            test_crash_propagates;
          QCheck_alcotest.to_alcotest prop_maps_equal_list_map;
        ] );
    ]
