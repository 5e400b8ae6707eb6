(** Strongly connected components (Tarjan's algorithm).

    Queries compile the graph into the {!Csr} kernel, so every
    function here raises [Invalid_argument] on a graph
    naming a negative pid. The seed tree-set Tarjan is the test oracle
    in [test/oracle]; both emit identical results, ordering
    included. *)

val components : Digraph.t -> Pid.Set.t list
(** The strongly connected components of the graph, in reverse
    topological order of the condensation (a component is listed before
    any component it has an edge to... specifically, Tarjan emits each
    component only after all components reachable from it). Every vertex
    appears in exactly one component. *)

val component_of : Digraph.t -> Pid.t -> Pid.Set.t
(** The component containing the given vertex.
    @raise Not_found if the vertex is not in the graph. *)

val is_strongly_connected : Digraph.t -> bool
(** Whether the whole (non-empty) graph is a single SCC. The empty graph
    is considered strongly connected. *)
