(** Compiled compressed-sparse-row (CSR) graphs: the array kernel the
    heavy graph analyses run on.

    A {!Digraph.t} is compiled once into dense int arrays — a
    deterministic pid ↔ dense-index interning (ascending pid order) plus
    [succ]/[pred] adjacency rows behind offset arrays — and the handle
    memoizes the SCC partition and the condensation, so the consumers
    that condense the same graph once per query (the sink oracle of
    Definition 8, the k-OSR checks, pipeline sweeps) pay for the
    analysis once per graph instead. Results are guaranteed identical to
    the seed tree-set algorithms (the oracles in [test/oracle]),
    including SCC emission order and condensation successor-list order.
    Process ids are non-negative (DESIGN.md §8): a graph naming a
    negative pid is refused, exactly like the quorum kernel. *)

type t
(** A compiled graph handle. Immutable as seen through this interface;
    internally it caches analysis results on first use. *)

val of_graph : Digraph.t -> t
(** Compiles the graph: O(V log V + E).
    @raise Invalid_argument when some vertex is a negative pid. *)

val get : Digraph.t -> t
(** Memoized {!of_graph}: a bounded most-recently-used {!Core.Cache}
    keyed by {e physical} equality of the graph value (graphs are
    immutable, so hits can never be stale). This is the entry point the
    graph analyses use.
    @raise Invalid_argument when some vertex is a negative pid. *)

val cache_stats : unit -> Core.Cache.stats
(** Cumulative shared-cache accounting for this process — the same
    record shape as {!Fbqs.Quorum.cache_stats} and every other
    {!Core.Cache} instance; reported by the daemon's [stats] verb. *)

val set_cache_capacity : int -> unit
(** Resizes the shared cache (default 16 entries).
    @raise Invalid_argument below 1. *)

val attach_cache_metrics : Obs.Metrics.t -> unit
(** Registers the cache's [cache_hits]/[cache_misses]/[cache_evictions]
    counters and [cache_entries] gauge (labelled [cache="graphkit_csr"])
    in the registry. *)

val graph : t -> Digraph.t

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

val scc_comp_of_dense : t -> int array
(** Dense vertex -> component id. Callers must not mutate. *)

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
