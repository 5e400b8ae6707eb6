(** Directed graphs over process identities.

    The knowledge-connectivity graph of the CUP model (Definition 5 of the
    paper) is a directed graph whose vertices are processes and whose edge
    [(i, j)] means "process [i] initially knows process [j]". This module
    provides the purely functional graph representation shared by every
    analysis in the repository. *)

type t
(** A finite directed graph. Vertices may be isolated. *)

val empty : t

val add_vertex : Pid.t -> t -> t

val add_edge : Pid.t -> Pid.t -> t -> t
(** [add_edge i j g] adds the edge [i -> j], implicitly adding both
    endpoints as vertices. Self-loops are permitted but ignored by most
    analyses. *)

val remove_vertex : Pid.t -> t -> t
(** Removes the vertex and every edge incident to it. *)

val remove_vertices : Pid.Set.t -> t -> t

val of_edges : (Pid.t * Pid.t) list -> t

val of_adjacency : (Pid.t * Pid.t list) list -> t
(** [of_adjacency [(i, succs); ...]] builds the graph in which each [i]
    has exactly the listed successors: the graph [add_vertex]/[add_edge]
    would build from the same rows (a repeated source gets the union of
    its rows, and every listed successor is a vertex), in one pass. *)

val vertices : t -> Pid.Set.t

val n_vertices : t -> int

val n_edges : t -> int

val mem_vertex : Pid.t -> t -> bool

val mem_edge : Pid.t -> Pid.t -> t -> bool

val succs : t -> Pid.t -> Pid.Set.t
(** Out-neighbours; empty set if the vertex is absent. *)

val preds : t -> Pid.t -> Pid.Set.t
(** In-neighbours; empty set if the vertex is absent. *)

val edges : t -> (Pid.t * Pid.t) list

val fold_edges : (Pid.t -> Pid.t -> 'a -> 'a) -> t -> 'a -> 'a

val iter_succs : (Pid.t -> Pid.Set.t -> unit) -> t -> unit
(** Visits every vertex with its successor set, in ascending vertex
    order, without the per-vertex lookup cost of {!succs}. This is the
    traversal the {!Csr} compiler is built on. *)

val subgraph : Pid.Set.t -> t -> t
(** [subgraph vs g] is the subgraph induced by the vertices [vs]. *)

val transpose : t -> t
(** Reverses every edge. *)

val undirected : t -> t
(** Symmetric closure: the undirected graph [G] obtained from [G_di] in
    the paper, represented as a digraph with both edge directions. *)

val union : t -> t -> t

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
