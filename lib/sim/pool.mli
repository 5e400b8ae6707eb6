(** The fork backend of {!Exec}, for builds without domains (OCaml
    4.14).

    Experiment sweeps are embarrassingly parallel: each sample is a
    pure function of its own seed, graph and config, and touches no
    shared mutable state (every worker builds its own engine, metrics
    registry and trace buffer). The functions here farm such jobs out
    to forked worker processes and return the results in input order,
    so the output is byte-identical to the sequential run —
    parallelism is a pure wall-clock optimisation, never a semantic
    knob.

    Workers claim chunks of consecutive jobs from a jobserver-style
    one-byte token pipe, so a slow chunk never stalls a statically
    assigned share, and send each chunk's results back as one
    [Marshal] frame. {!map_persistent} keeps its workers parked between
    batches; {!map_chunked} forks them for one batch.

    [Unix.fork] is refused on OCaml 5 once a second domain has been
    started, so no other domain may be running when these functions
    are called. {!Exec.map} calls them only where domains are
    unavailable; on OCaml 5 they are exercised only from a process that
    never starts a domain. *)

exception Job_failed of string
(** A job raised in a worker (the payload is the exception text plus
    the worker's backtrace), or a worker died before reporting results.
    Raised in the parent only after every worker of the batch has
    reported or been reaped, so a crash never hangs the pool. *)

val has_fork : bool
(** Whether [Unix.fork] exists on this platform (everywhere but
    Windows). {!Exec} consults this to pick its fallback backend. *)

val max_chunks : int
(** Chunk ids must fit the one-byte jobserver token: at most 256
    chunks per batch. {!map_chunked} and {!map_persistent} refuse
    larger batches; {!Exec.map} raises its chunk size to stay under
    the budget. *)

val map_chunked : chunk:int -> workers:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map_chunked ~chunk ~workers f xs] evaluates [f] on every element
    of [xs] in up to [workers] forked processes, which claim chunks of
    [chunk] consecutive jobs, and returns the results in input order:
    byte-identical to [List.map f xs]. Always forks (for a non-empty
    [xs]); callers gate on {!has_fork} and the job count. It is the
    fallback of {!map_persistent}.

    [f] and [xs] are inherited through [fork], never marshalled, so
    jobs may close over anything; results travel by [Marshal], so ['b]
    must be plain data (no closures, no custom blocks). If jobs fail,
    the exception of the minimum-index failing job is re-raised as
    {!Job_failed} after all workers are reaped.

    @raise Job_failed as described above.
    @raise Invalid_argument when [xs] at chunk size [chunk] needs more
    than {!max_chunks} chunks — raise [chunk] instead. *)

val map_persistent :
  chunk:int -> workers:int -> ('a -> 'b) -> 'a list -> 'b list
(** The fork backend of {!Exec.map}: the warm variant of
    {!map_chunked}. Workers are forked once per process, parked on a
    [select] between batches, and fed job descriptors over private
    command pipes (closure [Marshal] — fork guarantees the identical
    binary it requires) plus chunk ids over one shared one-byte token
    pipe. Byte-for-byte the same results, ordering and minimum-index
    [Job_failed] semantics as {!map_chunked}; a job failure leaves the
    pool warm. Jobs whose captures are not marshal-safe, and any
    transport fault, transparently fall back to a fresh per-call
    {!map_chunked} (after tearing the pool down in the fault case) —
    the caller never sees the difference.

    @raise Job_failed as for {!map_chunked}.
    @raise Invalid_argument as for {!map_chunked}. *)

val shutdown_persistent : unit -> unit
(** EOFs, reaps and forgets the persistent workers. Idempotent; a
    later {!map_persistent} respawns a fresh pool. Also registered
    [at_exit] on first spawn. *)

val persistent_workers : unit -> int
(** Currently parked persistent fork workers. *)

val persistent_peak : unit -> int
(** High-water mark of {!persistent_workers} this process. *)

val persistent_batches : unit -> int
(** Batches submitted to the persistent fork pool. *)
