(** Graph traversals and reachability queries.

    Queries run as int-array BFS on the compiled {!Csr} kernel: each
    compiles its graph once, and the [_csr] variants take a handle the
    caller compiled, for loops that ask one graph many questions. They
    raise [Invalid_argument] on a graph naming a negative pid
    ({!shortest_path} excepted: it walks the graph directly). The seed
    set-union implementations are the test oracle in [test/oracle];
    both return identical (canonical) values. *)

val reachable : Digraph.t -> Pid.t -> Pid.Set.t
(** [reachable g i] is the set of vertices reachable from [i] following
    directed edges, including [i] itself. This is exactly the knowledge a
    process can accumulate by transitively querying the processes it
    knows (the fixpoint computed by the SINK discovery protocol). *)

val reachable_from_set : Digraph.t -> Pid.Set.t -> Pid.Set.t
(** Union of [reachable] over a set of sources. *)

val bfs_layers : Digraph.t -> Pid.t -> Pid.Set.t list
(** [bfs_layers g i] lists the BFS layers from [i]: layer 0 is [{i}],
    layer [d] contains the vertices at directed distance [d]. *)

val distance : Digraph.t -> Pid.t -> Pid.t -> int option
(** Directed hop distance, [None] if unreachable. *)

val shortest_path : Digraph.t -> Pid.t -> Pid.t -> Pid.t list option
(** One shortest directed path [i; ...; j], [None] if unreachable. *)

val is_connected_undirected : Digraph.t -> bool
(** Whether the symmetric closure of the graph is connected (condition 1
    of the k-OSR definition). Vacuously true for the empty graph. *)

val eccentricity : Digraph.t -> Pid.t -> int option
(** Longest directed distance from the vertex to any vertex reachable
    from it; [None] when the vertex is absent from the graph. *)

(** {2 On a compiled graph} *)

val is_connected_undirected_csr : Csr.t -> bool
(** {!is_connected_undirected} on a handle. *)

val eccentricity_csr : Csr.t -> Pid.t -> int option
(** {!eccentricity} on a handle. *)
