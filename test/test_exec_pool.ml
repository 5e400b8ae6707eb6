(* The persistent worker pool behind Simkit.Exec (DESIGN.md §18):
   lifecycle (lazy spawn, reuse across batches, idempotent shutdown,
   respawn) and the STELLAR_CUP_JOBS environment default. The fork
   pool's own cases (chunk-token budget, closure-Marshal transport and
   its per-call fallback) run in fork_main, which never starts a
   domain.

   Worker counts are capped by the machine (one core spawns no domain
   workers at all), so nothing here asserts absolute pool sizes — only
   relations the facade guarantees everywhere: batches grow with every
   parallel map (inline ones included), size never exceeds peak, and
   shutdown leaves the pool empty but usable. *)

module Exec = Simkit.Exec

let int_list = Alcotest.(list int)

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  go 0

(* ---- facade lifecycle ------------------------------------------------- *)

let test_batches_grow_and_results_stable () =
  let xs = List.init 64 Fun.id in
  let f x = (x * 7) - 3 in
  let expected = List.map f xs in
  let b0 = Exec.Pool.batches () in
  Alcotest.check int_list "first map" expected (Exec.map ~jobs:4 f xs);
  let b1 = Exec.Pool.batches () in
  Alcotest.(check bool) "a batch was counted" true (b1 > b0);
  Alcotest.check int_list "warm map" expected (Exec.map ~jobs:4 f xs);
  Alcotest.(check bool) "another batch" true (Exec.Pool.batches () > b1);
  Alcotest.(check bool) "size never exceeds peak" true
    (Exec.Pool.size () <= Exec.Pool.peak ())

let test_shutdown_idempotent_and_respawn () =
  let xs = List.init 32 Fun.id in
  let f x = x * x in
  let expected = List.map f xs in
  Alcotest.check int_list "warm the pool" expected (Exec.map ~jobs:4 f xs);
  Exec.Pool.shutdown ();
  Exec.Pool.shutdown ();
  Alcotest.(check int) "no workers after shutdown" 0 (Exec.Pool.size ());
  let b = Exec.Pool.batches () in
  Alcotest.check int_list "map after shutdown respawns" expected
    (Exec.map ~jobs:4 f xs);
  Alcotest.(check bool) "respawned batch counted" true
    (Exec.Pool.batches () > b)

let test_min_index_failure_on_warm_pool () =
  let xs = List.init 16 Fun.id in
  (* warm first, then fail mid-batch: the minimum-index failure wins
     and the pool answers the next map as if nothing happened *)
  ignore (Exec.map ~jobs:4 (fun x -> x + 1) xs);
  (try
     ignore
       (Exec.map ~jobs:4
          (fun x ->
            if x = 3 || x = 11 then failwith (Printf.sprintf "boom %d" x);
            x)
          xs);
     Alcotest.fail "expected Job_failed"
   with Exec.Job_failed msg ->
     Alcotest.(check bool) "minimum index reported" true
       (contains ~affix:"boom 3" msg));
  Alcotest.check int_list "pool still serves after a failure"
    (List.map (fun x -> x - 1) xs)
    (Exec.map ~jobs:4 (fun x -> x - 1) xs)

(* ---- the environment default ------------------------------------------- *)

let test_jobs_from_env () =
  let var = Exec.jobs_env_var in
  let old = Sys.getenv_opt var in
  let set v = Unix.putenv var v in
  Fun.protect
    ~finally:(fun () -> set (Option.value ~default:"" old))
    (fun () ->
      Alcotest.(check string) "the documented name" "STELLAR_CUP_JOBS" var;
      set "4";
      Alcotest.(check (option int)) "positive int" (Some 4)
        (Exec.jobs_from_env ());
      set " 8 ";
      Alcotest.(check (option int)) "trimmed" (Some 8) (Exec.jobs_from_env ());
      set "";
      Alcotest.(check (option int)) "empty is unset" None
        (Exec.jobs_from_env ());
      set "0";
      Alcotest.(check (option int)) "zero is malformed" None
        (Exec.jobs_from_env ());
      set "-3";
      Alcotest.(check (option int)) "negative is malformed" None
        (Exec.jobs_from_env ());
      set "many";
      Alcotest.(check (option int)) "garbage is malformed" None
        (Exec.jobs_from_env ()))

let suites =
  [
    ( "exec-pool",
      [
        Alcotest.test_case "batches grow, results stable" `Quick
          test_batches_grow_and_results_stable;
        Alcotest.test_case "shutdown idempotent, respawn works" `Quick
          test_shutdown_idempotent_and_respawn;
        Alcotest.test_case "min-index failure on a warm pool" `Quick
          test_min_index_failure_on_warm_pool;
        Alcotest.test_case "STELLAR_CUP_JOBS parsing" `Quick test_jobs_from_env;
      ] );
  ]
