(** The fork backend of {!Exec}, for builds without domains (OCaml
    4.14).

    Experiment sweeps are embarrassingly parallel: each sample is a
    pure function of its own seed, graph and config, and touches no
    shared mutable state (every worker builds its own engine, metrics
    registry and trace buffer). {!map_persistent} farms such jobs out
    to forked worker processes and returns the results in input order,
    so the output is byte-identical to the sequential run —
    parallelism is a pure wall-clock optimisation, never a semantic
    knob.

    The workers are forked once and parked between batches. They claim
    chunks of consecutive jobs from a jobserver-style one-byte token
    pipe, so a slow chunk never stalls a statically assigned share, and
    send each chunk's results back as one [Marshal] frame.

    [Unix.fork] is refused on OCaml 5 once a second domain has been
    started, so no other domain may be running when these functions
    are called. {!Exec.map} calls them only where domains are
    unavailable; on OCaml 5 they are exercised only from a process that
    never starts a domain. *)

exception Job_failed of string
(** A job raised in a worker (the payload is the exception text plus
    the worker's backtrace), or the pool's transport failed twice in a
    row. Raised in the parent only after the batch is collected or its
    workers are reaped, so a crash never hangs the pool. *)

val has_fork : bool
(** Whether [Unix.fork] exists on this platform (everywhere but
    Windows). {!Exec} consults this to pick its fallback backend. *)

val max_chunks : int
(** Chunk ids must fit the one-byte jobserver token: at most 256
    chunks per batch. {!map_persistent} refuses larger batches;
    {!Exec.map} raises its chunk size to stay under the budget. *)

val map_persistent :
  chunk:int -> workers:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map_persistent ~chunk ~workers f xs] evaluates [f] on every
    element of [xs] in up to [workers] parked worker processes, which
    claim chunks of [chunk] consecutive jobs, and returns the results
    in input order: byte-identical to [List.map f xs]. Callers gate on
    {!has_fork} and the job count.

    The job reaches the parked workers by closure [Marshal] over a
    private command pipe (fork guarantees the identical binary it
    requires); a worker forked to grow the pool inherits it. When the
    job's captures do not marshal (a channel, a custom block), the pool
    is forked afresh so that every worker inherits the job, and those
    workers stay parked for the next batch. Results travel by
    [Marshal], so ['b] must be plain data (no closures, no custom
    blocks).

    If jobs fail, the exception of the minimum-index failing job is
    re-raised as {!Job_failed} and the pool stays warm. A transport
    fault (a dead worker, a broken pipe, a bad frame) tears the pool
    down and runs the batch once more on a freshly forked pool; a
    second fault in a row is a {!Job_failed}.

    @raise Job_failed as described above.
    @raise Invalid_argument when [xs] at chunk size [chunk] needs more
    than {!max_chunks} chunks — raise [chunk] instead. *)

val shutdown_persistent : unit -> unit
(** EOFs, reaps and forgets the parked workers. Idempotent; a later
    {!map_persistent} forks a fresh pool. Also registered [at_exit] on
    first spawn. *)

val persistent_workers : unit -> int
(** Currently parked fork workers. *)

val persistent_peak : unit -> int
(** High-water mark of {!persistent_workers} this process. *)

val persistent_batches : unit -> int
(** Batches submitted to the fork pool. *)
