(** Node-disjoint path counting and the connectivity predicates used by
    the k-OSR participant-detector class.

    All path counts are computed exactly, via max-flow on a node-split
    network (Menger's theorem): two directed paths from [i] to [j] are
    counted as disjoint when they share no vertex other than [i] and
    [j].

    Networks are built straight from the compiled {!Csr} rows (for the
    restricted variant, via a bool mask rather than an induced
    subgraph), so every count raises [Invalid_argument] on a graph
    naming a negative pid. Each function compiles its graph once, and
    the all-pairs checks run every pair on that one handle. Max-flow
    values are unique, so the counts equal the seed construction's, the
    test oracle in [test/oracle]. *)

val node_disjoint_paths : Digraph.t -> Pid.t -> Pid.t -> int
(** Maximum number of internally node-disjoint directed paths from the
    first vertex to the second. Returns 0 when either endpoint is absent
    or the endpoints are equal. A direct edge counts as one path. *)

val node_disjoint_paths_csr : Csr.t -> Pid.t -> Pid.t -> int
(** {!node_disjoint_paths} on a handle the caller compiled, for loops
    that count paths between many pairs of one graph. *)

val is_k_strongly_connected : Digraph.t -> int -> bool
(** Condition 3 of Definition 6: every ordered pair of distinct vertices
    is linked by at least [k] node-disjoint paths. Graphs with at most
    one vertex qualify trivially. *)

val vertex_connectivity : Digraph.t -> int
(** The largest [k] such that the graph is k-strongly connected
    (minimum over ordered pairs of the disjoint-path count). Returns
    [max_int] for graphs with fewer than two vertices. *)

val f_reachable : Digraph.t -> correct:Pid.Set.t -> int -> Pid.t -> Pid.t -> bool
(** Definition 9: [f_reachable g ~correct f i j] holds when there are at
    least [f + 1] node-disjoint paths from [i] to [j] whose vertices all
    lie in [correct] (the endpoints included). *)

val disjoint_paths_within : Digraph.t -> allowed:Pid.Set.t -> Pid.t -> Pid.t -> int
(** Disjoint-path count restricted to the subgraph induced by
    [allowed] (the endpoints are added to [allowed] implicitly). *)
