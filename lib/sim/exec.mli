(** The parallel map executor behind every [--jobs] flag.

    Two backends, one contract. On OCaml 5 a {b domain pool} spawns
    [jobs] domains that pull chunks of job indices from a
    mutex-protected counter and write results straight into a
    preallocated slot array — shared heap, zero serialization. On 4.14
    (or wherever domains are unavailable) the warm {b fork pool} of
    {!Pool.map_persistent} takes over: the same chunked dynamic
    dispatch, with results marshalled up a pipe per chunk. The backend
    is picked at build time by a dune rule (see [lib/sim/dune]):
    [exec_domains.ml] is either the real domain pool or a stub that
    reports itself unavailable.

    The contract, identical at every [jobs] count and on both
    backends: [map ~jobs f xs = List.map f xs], byte for byte.
    Jobs must be independent pure-ish functions (each experiment
    sample builds its own engine, metrics registry and trace buffer);
    the executor adds parallelism as a pure wall-clock optimisation,
    never a semantic knob. Determinism of the error path: if jobs
    fail, the exception text of the {e minimum-index} failing job is
    the one re-raised, on both backends (chunk claiming is monotonic,
    so that job was always attempted).

    Shared state: none in [lib/]. The compiled quorum and graph
    handles are immutable once built and owned by the call that
    compiled them, so no job reaches another job's handle, and no
    process-wide cache exists. State a caller does share between
    concurrent tasks (the daemon's counters and caches) moves under
    {!protect}, whose lock lives in the version-switched backend
    (identity on 4.14, where [Mutex] is not even in the stdlib):
    parallelism primitives stay behind this seam (enforced by
    stellar-lint rule D6). *)

exception Job_failed of string
(** The same exception as {!Pool.Job_failed} (rebound, so either name
    catches it): a job raised (payload: exception text plus backtrace),
    or the fork pool's transport failed twice in a row (a worker died
    before reporting, on the batch and on its rerun). Raised only after
    every worker has been joined/reaped. *)

type backend = Domains | Fork | Sequential

val domains_available : bool
(** Whether this binary was built with the domain backend (OCaml 5). *)

val fork_available : bool
(** Whether [Unix.fork] exists on this platform. *)

val backend : jobs:int -> int -> backend
(** [backend ~jobs n] — the backend {!map} would pick for [n] jobs:
    [Sequential] when [jobs <= 1] or [n <= 1], else domains when
    available, else fork, else sequential. Exposed so callers (CLI,
    bench) can report the execution mode. *)

val backend_name : backend -> string
(** ["domains"], ["fork"] or ["sequential"]. *)

val map : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f xs] evaluates [f] on every element of [xs] with up to
    [jobs] workers on the backend {!backend} picks, and returns the
    results in input order — byte-identical to [List.map f xs]. Chunk
    sizes follow the job count; results never depend on them.

    On the fork backend results travel by [Marshal], so ['b] must be
    marshal-safe plain data there; the domain backend has no such
    restriction (results never leave the heap). Inputs and [f] are
    never serialized on the domain backend; the warm fork pool ships
    the job to its parked workers by closure [Marshal] when it can, and
    re-forks them into the job (plain inheritance) when the captures
    are not marshal-safe — results are byte-identical either way.

    Both backends keep their workers alive between calls (see
    {!Pool}): the first parallel [map] pays the spawn cost, later ones
    only dispatch.

    @raise Job_failed if any job raises (minimum-index failure wins),
    after all workers are collected. *)

(** {1 The persistent worker pool} *)

(** Lifecycle and occupancy of the process-wide worker pool behind
    {!map} — parked domains on OCaml 5, parked fork workers on 4.14
    (whichever backend is live; the other side reports zero). *)
module Pool : sig
  val shutdown : unit -> unit
  (** Tears the live pool down (joins domains / EOFs+reaps fork
      workers). Idempotent; the next parallel {!map} respawns lazily.
      Registered [at_exit] on first spawn, so explicit calls are only
      needed to reclaim workers mid-process. *)

  val size : unit -> int
  (** Workers currently parked (the submitting caller is not one). *)

  val peak : unit -> int
  (** High-water mark of {!size} over the process lifetime. *)

  val batches : unit -> int
  (** Parallel map batches executed so far (including batches the
      1-core domain cap ran inline). *)
end

val jobs_env_var : string
(** ["STELLAR_CUP_JOBS"] — the environment default behind every
    [--jobs] flag (CLI, bench, daemon). An explicit flag always
    wins. *)

val jobs_from_env : unit -> int option
(** The parsed {!jobs_env_var} value: [Some j] for a positive integer,
    [None] when unset, empty or malformed. *)

(** {1 Detached tasks and shared-state protection} *)

val protect : (unit -> 'a) -> 'a
(** Runs the thunk inside the executor's global critical section. The
    only sanctioned mutual-exclusion seam outside [lib/sim]
    (stellar-lint D6): the daemon guards its counters and its two
    caches with it. The lock is not reentrant: the thunk must not call
    [protect], nor wait on a job that does. Identity on 4.14, where
    nothing runs concurrently. *)

type task
(** A detached unit of work — the daemon's per-client connection
    handlers. On OCaml 5 it runs on its own domain (not a pool seat:
    these are IO-bound); on 4.14 {!spawn_task} runs it inline before
    returning, so call sites degrade to sequential behaviour with no
    further casing. *)

val spawn_task : (unit -> unit) -> task
val join_task : task -> unit

val concurrent_tasks : bool
(** Whether {!spawn_task} actually runs tasks concurrently
    ([domains_available]). *)
