(** Condensation of a digraph into its DAG of strongly connected
    components, and the sink-component queries the CUP model is built on.

    A component [C] is a {e sink component} when no vertex of [C] has an
    edge leaving [C] (Section III-E of the paper): no path leads from a
    member of [C] to any vertex outside [C]. The k-OSR property requires
    the condensation to have exactly one sink.

    Queries run on the compiled {!Csr} kernel: [make] compiles the
    graph ({!Csr.of_graph}), and the handle computes the SCC partition
    and DAG once for every query asked of it; a caller that asks one
    graph many questions holds the handle. [make] raises
    [Invalid_argument] on a graph naming a negative pid. Component ids,
    DAG lists and sink ids equal the seed tree-set construction's, which
    is the test oracle in [test/oracle]. *)

type t

val make : Digraph.t -> t

val components : t -> Pid.Set.t array
(** All SCCs. Indices are the component ids used below. *)

val component_of : t -> Pid.t -> int
(** @raise Not_found if the vertex is absent. *)

val dag_succs : t -> int -> int list
(** Successor components in the condensation DAG. *)

val sinks : t -> int list
(** Ids of the components with no outgoing DAG edge. *)

val sink_components : Digraph.t -> Pid.Set.t list
(** Vertex sets of all sink components of a graph. *)

val unique_sink : Digraph.t -> Pid.Set.t option
(** [Some v_sink] when the condensation has exactly one sink component,
    [None] otherwise. This is [V_sink] in the paper. *)
