(** Compiled compressed-sparse-row (CSR) graphs: the array kernel the
    heavy graph analyses run on.

    A {!Digraph.t} is compiled once into dense int arrays — a
    deterministic pid ↔ dense-index interning (ascending pid order) plus
    [succ]/[pred] adjacency rows behind offset arrays — and the handle
    memoizes the SCC partition and the condensation. Nothing keeps a
    handle but the caller that compiled it: a public graph function
    compiles its argument once per call and passes the handle down its
    own loops (the pair loops of the k-OSR checks, the sink oracle's
    per-process answers). Results are guaranteed identical to
    the seed tree-set algorithms (the oracles in [test/oracle]),
    including SCC emission order and condensation successor-list order.
    Process ids are non-negative (DESIGN.md §8): a graph naming a
    negative pid is refused, exactly like the quorum kernel. *)

type t
(** A compiled graph handle. Immutable as seen through this interface;
    internally it caches analysis results on first use. *)

val of_rows : (Pid.t * Pid.t list) list -> t
(** [of_rows [(v, succs); ...]] compiles the graph whose vertices are
    the rows' [v] and whose successors of [v] are [succs], in O(V + E)
    and without building a {!Digraph.t}. The rows come in strictly
    ascending [v] order, each [succs] is strictly ascending, and every
    successor is the [v] of some row: the shape of
    [Pid.Dense_set.elements] rows over a vertex set. The Tarjan order,
    and so everything below, is that of {!of_graph} on the same graph.
    @raise Invalid_argument when some vertex is a negative pid, when
    rows or successors are out of order or repeated, or when a
    successor is not a vertex. *)

val of_graph : Digraph.t -> t
(** Compiles the graph's rows with the compiler behind {!of_rows},
    reading each successor set in place: O(V + E).
    @raise Invalid_argument when some vertex is a negative pid. *)

val cache_stats : unit -> Core.Cache.stats
(** All zero: no process-wide cache of compiled graphs exists. Kept
    only because the benchmark harness still reads it (ROADMAP item 5
    removes it with the harness's own next change). *)

val n_vertices : t -> int

val pid_of : t -> int -> Pid.t
(** Dense index -> pid. Indices are assigned in ascending pid order. *)

val index_of : t -> Pid.t -> int option
(** Pid -> dense index; [None] when the pid is not a vertex (a negative
    pid included). *)

val succ_off : t -> int array
(** Offsets into {!succ_arr}: the successors of dense vertex [v] are
    [succ_arr.(succ_off.(v)) .. succ_arr.(succ_off.(v+1) - 1)], sorted
    ascending. Length [n + 1]. Callers must not mutate. *)

val succ_arr : t -> int array

val pred_off : t -> int array

val pred_arr : t -> int array

(** {1 Strongly connected components}

    Computed on first use with an iterative array Tarjan and cached in
    the handle. Component ids are the seed's emission order: a component
    is emitted only after every component reachable from it. *)

val scc_count : t -> int

val scc_component_of : t -> Pid.t -> int option

val scc_component_sets : t -> Pid.Set.t array
(** Component id -> vertex set. Shared, cached array — callers must not
    mutate. *)

val scc_components : t -> Pid.Set.t list
(** The components in emission order, exactly {!Scc.components}. *)

(** {1 Condensation DAG}

    Computed on first use and cached. *)

val dag_succs : t -> int list array
(** Component id -> successor component ids, element-for-element equal
    to the seed condensation's lists. Callers must not mutate. *)

val dag_sinks : t -> int list
(** Ids of components with no outgoing DAG edge, ascending. *)
