(** The analysis service daemon: a deterministic request loop over
    newline-delimited JSON.

    Requests are JSON objects [{"id": .., "verb": .., ...params}]; each
    produces zero or more ["trace"] envelope lines followed by exactly
    one ["response"] envelope line (a {!Core.Report} envelope whose
    meta carries the echoed [id], the [verb] and an [ok] flag). Verbs:
    [ping], [version], [analyze] (the {!Serve.Api.analyze} surface over
    a slice-system file), [run] (one consensus run), [stats] (cache,
    pool and request counters) and [shutdown].

    Per connection, the response stream is a pure function of the
    request stream — byte-identical requests yield byte-identical
    responses, served from a response cache on repeats — with the
    single intended exception of [stats], whose counters reflect
    accumulated state (that is what it is for). The stdio transport
    is strictly sequential (the golden replay); the Unix-socket
    transport serves several clients concurrently, each on a detached
    executor task, all sharing the caches and the persistent worker
    pool. See DESIGN.md §14 for the protocol and §18 for the
    concurrency model. *)

type t
(** One daemon instance: its file and response caches plus the
    request counter. *)

val create : ?jobs:int -> unit -> t
(** A daemon with a 64-entry response cache and an 8-entry file
    cache. [jobs] (default 1) is the Enum parallelism of [analyze]
    requests and its upper bound: a request's own ["jobs"] field may
    lower it, and a larger one runs at [jobs]. Payloads are
    byte-identical at every jobs count either way. *)

val handle_line : t -> string -> string list
(** Handles one request line, returning the output lines (each a
    serialized envelope, no trailing newline). Blank lines yield no
    output; malformed JSON (nesting past 512 levels included), a bad
    request or an analysis the engine refuses (a splitting sweep over
    more than 62 pids) yields one error response, and so does any
    other exception a request raises, named in the message. Never
    raises. *)

val stopping : t -> bool
(** Set once a [shutdown] request has been handled. *)

val max_line_bytes : int
(** 1 MiB: the longest request line either transport serves. A longer
    line is skipped to its newline, unkept, and answered with one error
    response naming the cap; the connection stays open. *)

val serve_stdio : t -> unit
(** Reads requests from stdin until EOF or [shutdown], writing and
    flushing the response lines to stdout per request — the transport
    the golden session replays through. *)

val default_max_clients : int
(** 4 — the default concurrent-connection cap of {!serve_unix}. *)

val serve_unix : ?max_clients:int -> t -> path:string -> unit
(** Listens on a Unix domain socket at [path] (an existing file there
    is replaced), serving up to [max_clients] (default 4) connections
    concurrently — each on a detached {!Simkit.Exec} task — until a
    client sends [shutdown]. Per-connection request order is
    preserved; connections beyond the cap wait for a free slot. On
    runtimes without concurrent tasks ({!Simkit.Exec.concurrent_tasks}
    false) clients are served one at a time in accept order. After
    [shutdown], the listener stops accepting, already-connected
    clients are drained (they stop at their next request or EOF), and
    the socket file is removed. SIGPIPE is ignored from the first call
    on, so a client that hangs up before reading its reply ends only
    its own connection. *)
