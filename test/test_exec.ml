(* The parallel executor's whole contract is "byte-identical to the
   sequential run, just faster", on whichever backend the build has
   (domain pool on OCaml 5, fork pool otherwise): ordering, crash
   propagation, the minimum-index error determinism, chunking
   invariance and the jobs=1 degenerate case are the things that can
   silently break it. The fork backend is also driven directly, in
   the domain-free fork_main executable. *)

let int_list = Alcotest.(list int)

let contains_substring ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  at 0

let test_empty_and_singleton () =
  Alcotest.check int_list "empty list" []
    (Simkit.Exec.map ~jobs:4 (fun x -> x + 1) []);
  Alcotest.check int_list "singleton" [ 43 ]
    (Simkit.Exec.map ~jobs:4 (fun x -> x + 1) [ 42 ])

let test_jobs_degenerate () =
  let xs = List.init 10 Fun.id in
  let f x = (x * x) - (3 * x) in
  let expected = List.map f xs in
  List.iter
    (fun jobs ->
      Alcotest.check int_list
        (Printf.sprintf "jobs=%d" jobs)
        expected
        (Simkit.Exec.map ~jobs f xs))
    [ -1; 0; 1; 2; 3; 10; 64 ]

let test_order_preserved_more_jobs_than_items () =
  let xs = [ "c"; "a"; "b" ] in
  Alcotest.(check (list string))
    "order follows input, not workers" [ "c!"; "a!"; "b!" ]
    (Simkit.Exec.map ~jobs:16 (fun s -> s ^ "!") xs)

let test_closure_capture () =
  (* Domain workers share the heap; fork workers inherit it. Either
     way, capturing a non-marshal-safe value must work. *)
  let shift = ref 7 in
  let adder x = x + !shift in
  Alcotest.check int_list "captured state visible in workers" [ 8; 9; 10 ]
    (Simkit.Exec.map ~jobs:2 adder [ 1; 2; 3 ])

let test_backend_dispatch () =
  let name n = Simkit.Exec.backend_name n in
  Alcotest.(check string)
    "jobs=1 is sequential" "sequential"
    (name (Simkit.Exec.backend ~jobs:1 100));
  Alcotest.(check string)
    "singleton input is sequential" "sequential"
    (name (Simkit.Exec.backend ~jobs:8 1));
  let expected =
    if Simkit.Exec.domains_available then "domains"
    else if Simkit.Exec.fork_available then "fork"
    else "sequential"
  in
  Alcotest.(check string)
    "parallel-sized input picks the best available backend" expected
    (name (Simkit.Exec.backend ~jobs:4 100))

let test_crash_propagates () =
  let raised =
    try
      ignore
        (Simkit.Exec.map ~jobs:3
           (fun x -> if x = 5 then failwith "boom" else x)
           (List.init 9 Fun.id));
      false
    with Simkit.Exec.Job_failed msg ->
      Alcotest.(check bool)
        "failure text carries the exception" true
        (contains_substring ~sub:"boom" msg);
      true
  in
  Alcotest.(check bool) "Job_failed raised" true raised

let test_pool_exception_compatible () =
  (* Exec.Job_failed is Pool.Job_failed rebound: handlers written
     against either name keep working. *)
  let caught =
    try
      ignore
        (Simkit.Exec.map ~jobs:2
           (fun x -> if x > 0 then failwith "pop" else x)
           [ 0; 1; 2; 3 ]);
      false
    with Simkit.Pool.Job_failed _ -> true
  in
  Alcotest.(check bool) "catchable as Pool.Job_failed" true caught

let test_min_index_failure () =
  (* Two failing jobs: whatever the worker interleaving, the exception
     that surfaces is the minimum-index one — on both backends. *)
  List.iter
    (fun jobs ->
      let raised =
        try
          ignore
            (Simkit.Exec.map ~jobs
               (fun x ->
                 if x = 3 || x = 11 then failwith (Printf.sprintf "job<%d>" x)
                 else x)
               (List.init 16 Fun.id));
          false
        with Simkit.Exec.Job_failed msg ->
          Alcotest.(check bool)
            (Printf.sprintf "jobs=%d surfaces the minimum-index failure" jobs)
            true
            (contains_substring ~sub:"job<3>" msg
            && not (contains_substring ~sub:"job<11>" msg));
          true
      in
      Alcotest.(check bool) "Job_failed raised" true raised)
    [ 2; 4 ]

(* Lists run long enough that the default chunk exceeds 1 (it does
   from 64 jobs per worker). *)
let prop_exec_equals_list_map =
  QCheck.Test.make ~count:100
    ~name:"Exec.map = List.map (any jobs, default chunks)"
    QCheck.(pair (list_of_size Gen.(0 -- 1200) int) (int_range 1 8))
    (fun (xs, jobs) ->
      Simkit.Exec.map ~jobs (fun x -> (x * 17) - 5) xs
      = List.map (fun x -> (x * 17) - 5) xs)

(* The experiments are the real workload: their tables must come out
   byte-identical whatever the jobs count. Small sample counts keep
   this a unit test, not a benchmark. Each table is checked at jobs 2
   and 8 (exec-experiments) and at jobs 4 (pool-experiments) against
   one shared jobs=1 baseline. *)
let experiments =
  List.map
    (fun (name, build) ->
      let render ~jobs = Stellar_cup.Report.to_markdown (build ~jobs) in
      (name, render, lazy (render ~jobs:1)))
    [
      ( "e3",
        fun ~jobs ->
          Stellar_cup.Experiments.e3_theorem2_violation ~seed:1 ~samples:2
            ~jobs () );
      ( "e4",
        fun ~jobs ->
          Stellar_cup.Experiments.e4_algorithm2_intertwined ~seed:2 ~samples:2
            ~jobs () );
      ( "e5",
        fun ~jobs ->
          Stellar_cup.Experiments.e5_availability ~seed:3 ~samples:2 ~jobs () );
      ( "e6",
        fun ~jobs ->
          Stellar_cup.Experiments.e6_sink_detector ~seed:4 ~samples:2 ~jobs ()
      );
      ( "e7",
        fun ~jobs ->
          Stellar_cup.Experiments.e7_reachable_broadcast ~seed:5 ~samples:2
            ~jobs () );
      ( "e8",
        fun ~jobs ->
          Stellar_cup.Experiments.e8_pipelines ~seed:6 ~samples:2 ~jobs () );
    ]

let det_cases ~label jobs_list =
  List.map
    (fun (name, render, baseline) ->
      Alcotest.test_case
        (Printf.sprintf "%s: %s byte-identical" name label)
        `Slow
        (fun () ->
          List.iter
            (fun jobs ->
              Alcotest.(check string)
                (Printf.sprintf "%s table identical at jobs=%d" name jobs)
                (Lazy.force baseline) (render ~jobs))
            jobs_list))
    experiments

let suites =
  [
    ( "exec",
      [
        Alcotest.test_case "empty and singleton inputs" `Quick
          test_empty_and_singleton;
        Alcotest.test_case "degenerate and oversubscribed jobs" `Quick
          test_jobs_degenerate;
        Alcotest.test_case "order preserved with jobs > items" `Quick
          test_order_preserved_more_jobs_than_items;
        Alcotest.test_case "closures shared with workers" `Quick
          test_closure_capture;
        Alcotest.test_case "backend dispatch" `Quick test_backend_dispatch;
        Alcotest.test_case "worker crash raises Job_failed" `Quick
          test_crash_propagates;
        Alcotest.test_case "exception compatible with Pool" `Quick
          test_pool_exception_compatible;
        Alcotest.test_case "minimum-index failure wins" `Quick
          test_min_index_failure;
        QCheck_alcotest.to_alcotest prop_exec_equals_list_map;
      ] );
    ("exec-experiments", det_cases ~label:"jobs in {2,8}" [ 2; 8 ]);
    ("pool-experiments", det_cases ~label:"jobs=4" [ 4 ]);
  ]
