(* Domain-pool backend for {!Exec} — the OCaml 5 side of the dune
   version switch. A rule in [lib/sim/dune] copies this file to
   [exec_domains.ml] when the compiler has domains; on 4.14 the
   identically-signed [exec_domains_stub.ml] takes its place, so
   {!Exec} never mentions [Domain] directly and compiles unchanged on
   both generations.

   The protocol is deliberately untyped-but-narrow: the caller hands us
   a [do_job : int -> unit] closure (which reads its input and writes
   its result into caller-owned slot arrays — no serialization, no
   result transport) plus the job count, and we hand back the failures.
   Keeping ['a]/['b] out of this interface keeps the stub trivial.

   Since the persistent-pool rewrite the domains are spawned {e once
   per process} (lazily, on the first batch that wants them) and parked
   on a condition variable between batches instead of being spawned and
   joined per call: a batch submission publishes a [batch] record,
   broadcasts the parked workers awake, runs the caller as one of the
   workers, and waits for the joiners to drain the chunk counter. The
   spawn cost is paid once; a warm [map] is pure dispatch. *)

let available = true

(* The backend's global lock, behind {!Exec.protect}. Lives here (not
   in exec.ml) because [Mutex] is stdlib on OCaml 5 but a separate
   threads library on 4.14 — the stub's [locked] is the identity, so
   exec.ml never names Mutex and compiles on both generations. *)
let lock = Mutex.create ()

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

(* ------------------------------------------------------------------ *)
(* The persistent pool                                                *)
(* ------------------------------------------------------------------ *)

(* One submitted batch. Claiming off [next] is monotonic: a worker
   takes the chunk [next, next+chunk) and advances the counter under
   the pool mutex, so every index below any claimed index has been
   claimed — which is what lets {!Exec} report the minimum-index
   failure deterministically. [joined]/[active] bound participation:
   a parked worker may enter only while the batch still has unclaimed
   work ([next < n]) and a free seat ([joined < max_workers]), and the
   submitter returns once [active] drains to zero. *)
type batch = {
  do_job : int -> unit;
  n : int;
  chunk : int;
  max_workers : int;
  mutable joined : int;  (* workers (incl. the submitter) that entered *)
  mutable active : int;  (* workers currently running chunks *)
  mutable next : int;  (* next unclaimed job index *)
  mutable failures : (int * string) list;
}

(* Pool state, all guarded by [m]. [submit_lock] serializes whole
   batches (concurrent submitters — e.g. daemon clients — queue rather
   than interleave chunk counters), and orders spawn/shutdown against
   submissions. *)
let m = Mutex.create ()
let work_cv = Condition.create ()
let done_cv = Condition.create ()
let current : batch option ref = ref None
let parked : unit Domain.t list ref = ref []
let stopping = ref false
let peak = ref 0
let batches = ref 0
let submit_lock = Mutex.create ()
let teardown_registered = ref false

let take b =
  Mutex.lock m;
  let i = b.next in
  if i < b.n then b.next <- i + b.chunk;
  Mutex.unlock m;
  if i < b.n then Some (i, min b.n (i + b.chunk)) else None

let record b i msg =
  Mutex.lock m;
  b.failures <- (i, msg) :: b.failures;
  Mutex.unlock m

let run_batch b =
  let rec loop () =
    match take b with
    | None -> ()
    | Some (start, stop) ->
        (* Run the chunk in order, abandoning it at the first failure
           — exactly the prefix a sequential map would have computed
           before raising. *)
        let rec run i =
          if i < stop then
            match b.do_job i with
            | () -> run (i + 1)
            | exception e ->
                let bt = Printexc.get_backtrace () in
                record b i
                  (Printexc.to_string e
                  ^ if bt = "" then "" else "\n" ^ String.trim bt)
        in
        run start;
        loop ()
  in
  loop ()

(* A parked worker's whole life: sleep on [work_cv]; when a batch with
   a free seat and unclaimed work is published, join it, drain chunks,
   signal the submitter if last out, park again. The join guard is
   what makes rejoining impossible: a worker only leaves [run_batch]
   once [next >= n], at which point the guard rejects every worker for
   the rest of the batch's life. *)
let worker () =
  Mutex.lock m;
  let rec idle () =
    if !stopping then ()
    else
      match !current with
      | Some b when b.joined < b.max_workers && b.next < b.n ->
          b.joined <- b.joined + 1;
          b.active <- b.active + 1;
          Mutex.unlock m;
          run_batch b;
          Mutex.lock m;
          b.active <- b.active - 1;
          if b.active = 0 then Condition.broadcast done_cv;
          idle ()
      | _ ->
          Condition.wait work_cv m;
          idle ()
  in
  idle ();
  Mutex.unlock m

let read_stat r =
  Mutex.lock m;
  let v = !r in
  Mutex.unlock m;
  v

let pool_size () =
  Mutex.lock m;
  let k = List.length !parked in
  Mutex.unlock m;
  k

let pool_peak () = read_stat peak
let pool_batches () = read_stat batches

let shutdown_locked () =
  Mutex.lock m;
  let ws = !parked in
  parked := [];
  if ws <> [] then begin
    stopping := true;
    Condition.broadcast work_cv;
    Mutex.unlock m;
    List.iter Domain.join ws;
    Mutex.lock m;
    (* Reset so a later batch can respawn a fresh pool. *)
    stopping := false
  end;
  Mutex.unlock m

let shutdown () =
  Mutex.lock submit_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock submit_lock) shutdown_locked

(* Called under [submit_lock]. Spawn cap as before the persistent
   rewrite: domains are not cheap threads — every minor collection is
   a stop-the-world rendezvous of all of them, so running more than
   the hardware can schedule turns the GC barrier into a spin-storm
   (measured 3-5x slower than sequential on a 1-core container). *)
let ensure_workers wanted =
  let cap = max 0 (Domain.recommended_domain_count () - 1) in
  let wanted = min wanted cap in
  let have = pool_size () in
  if have < wanted then begin
    if not !teardown_registered then begin
      teardown_registered := true;
      (* [try_lock]: if the process dies while a submission holds the
         lock, skip the orderly teardown rather than deadlock — exit
         tears the domains down anyway. *)
      Stdlib.at_exit (fun () ->
          if Mutex.try_lock submit_lock then
            Fun.protect
              ~finally:(fun () -> Mutex.unlock submit_lock)
              shutdown_locked)
    end;
    let fresh = List.init (wanted - have) (fun _ -> Domain.spawn worker) in
    Mutex.lock m;
    parked := fresh @ !parked;
    peak := max !peak (List.length !parked);
    Mutex.unlock m
  end

let map_chunked ~chunk ~domains do_job n =
  let domains = min domains (max 1 (Domain.recommended_domain_count ())) in
  let b =
    {
      do_job;
      n;
      chunk;
      max_workers = domains;
      joined = 1;
      active = 1;
      next = 0;
      failures = [];
    }
  in
  if domains <= 1 then begin
    (* No helpers to wake (1-core clamp): run inline, skipping the
       condition-variable hand-off entirely so warm-pool dispatch
       costs what the old spawn-free path did. *)
    Mutex.lock m;
    incr batches;
    Mutex.unlock m;
    run_batch b;
    b.failures
  end
  else begin
    Mutex.lock submit_lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock submit_lock) @@ fun () ->
    ensure_workers (domains - 1);
    Mutex.lock m;
    incr batches;
    current := Some b;
    Condition.broadcast work_cv;
    Mutex.unlock m;
    (* The submitter is a worker too: [domains] chunk streams cost
       [domains - 1] parked helpers. *)
    run_batch b;
    Mutex.lock m;
    b.active <- b.active - 1;
    while b.active > 0 do
      Condition.wait done_cv m
    done;
    current := None;
    Mutex.unlock m;
    b.failures
  end

(* ------------------------------------------------------------------ *)
(* Detached tasks (daemon client handlers)                            *)
(* ------------------------------------------------------------------ *)

(* Detached tasks are IO-bound (a daemon connection blocked in [read]
   most of its life), so they run on dedicated domains outside the
   [recommended_domain_count] cap rather than occupying pool seats. *)
type task = unit Domain.t

let detach f = Domain.spawn f
let join_task t = Domain.join t
