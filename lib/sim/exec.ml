module Fork_pool = Pool

exception Job_failed = Pool.Job_failed

type backend = Domains | Fork | Sequential

let domains_available = Exec_domains.available
let fork_available = Pool.has_fork

let backend_name = function
  | Domains -> "domains"
  | Fork -> "fork"
  | Sequential -> "sequential"

let backend ~jobs n =
  if jobs <= 1 || n <= 1 then Sequential
  else if domains_available then Domains
  else if fork_available then Fork
  else Sequential

(* Shared mutable state reachable from jobs (the Core.Cache handle
   memos and the lazy analysis fields inside compiled handles) is
   written with idempotent, input-determined values, so racing on it
   is output-deterministic; but the cache's entry-list/length pair
   should still move atomically. The executor arms Core.Cache's
   critical-section hook with the backend's lock the first time the
   domain backend engages. The actual Mutex lives in
   exec_domains_native.ml — stdlib on OCaml 5, a separate threads
   library on 4.14, so this module never names it and no protocol or
   analysis code ever touches locking directly. *)
let arm_cache_protector =
  lazy
    (Core.Cache.set_protector { Core.Cache.protect = Exec_domains.locked })

(* Chunks amortize dispatch overhead for many tiny jobs but cost load
   balance for few heavy ones; experiment sweeps are firmly in the
   second camp (tens of multi-millisecond simulations), so the default
   only rises above 1 once there are dozens of jobs per worker. *)
let default_chunk ~jobs n = max 1 (min 1024 (n / (jobs * 32)))

let map_domains ~chunk ~jobs f xs =
  Lazy.force arm_cache_protector;
  let input = Array.of_list xs in
  let n = Array.length input in
  let slots = Array.make n None in
  (* Each job writes its own slot: disjoint indices, no serialization,
     results stay on the shared heap. *)
  let do_job i = slots.(i) <- Some (f input.(i)) in
  let failures =
    Exec_domains.map_chunked ~chunk ~domains:(min jobs n) do_job n
  in
  match List.sort (fun (i, _) (j, _) -> Int.compare i j) failures with
  | (_, msg) :: _ -> raise (Job_failed msg)
  | [] ->
      Array.to_list
        (Array.map
           (function
             | Some y -> y | None -> raise (Job_failed "missing result"))
           slots)

let map ~jobs f xs =
  let n = List.length xs in
  match backend ~jobs n with
  | Sequential -> List.map f xs
  | Domains -> map_domains ~chunk:(default_chunk ~jobs n) ~jobs f xs
  | Fork ->
      (* The chunk size is a throughput hint, so raise it as needed to
         fit the fork pool's one-byte chunk-token budget rather than
         surface {!Pool.map_persistent}'s [Invalid_argument]. *)
      let chunk =
        max (default_chunk ~jobs n)
          ((n + Pool.max_chunks - 1) / Pool.max_chunks)
      in
      Pool.map_persistent ~chunk ~workers:(min jobs n) f xs

(* ------------------------------------------------------------------ *)
(* The persistent pool surface                                        *)
(* ------------------------------------------------------------------ *)

let jobs_env_var = "STELLAR_CUP_JOBS"

let jobs_from_env () =
  match Sys.getenv_opt jobs_env_var with
  | None | Some "" -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some j when j >= 1 -> Some j
      | _ -> None)

let protect f =
  Lazy.force arm_cache_protector;
  Exec_domains.locked f

type task = Exec_domains.task

let spawn_task f =
  (* Detached tasks (daemon client handlers) race on the shared
     Core.Cache handles exactly like pool workers do: arm the
     protector before the first one starts. *)
  Lazy.force arm_cache_protector;
  Exec_domains.detach f

let join_task = Exec_domains.join_task
let concurrent_tasks = domains_available

(* Both backends keep their long-lived workers behind this one
   facade; either side is empty when the other is in play (domains on
   OCaml 5, forks on 4.14), so sums report whichever pool is live. *)
module Pool = struct
  let shutdown () =
    Exec_domains.shutdown ();
    Fork_pool.shutdown_persistent ()

  let size () = Exec_domains.pool_size () + Fork_pool.persistent_workers ()
  let peak () = Exec_domains.pool_peak () + Fork_pool.persistent_peak ()

  let batches () =
    Exec_domains.pool_batches () + Fork_pool.persistent_batches ()
end
