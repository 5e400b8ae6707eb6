(** Maximum flow (Dinic's algorithm) on small integer-capacity networks.

    Used to count node-disjoint paths (Menger's theorem) for the
    k-strong-connectivity and f-reachability checks of the k-OSR
    participant-detector definition.

    Arcs are stored in flat int arrays (reverse arc of [a] is
    [a lxor 1]) and compiled into a CSR adjacency when [max_flow] runs;
    the per-vertex arc order is insertion order, matching the seed
    list-based implementation (the test oracle in [test/oracle]), so
    both compute the same flow and the same residual cut. *)

type t
(** A mutable flow network under construction. *)

val create : n:int -> source:int -> sink:int -> t
(** [create ~n ~source ~sink] prepares a network with nodes
    [0 .. n-1]. *)

val add_edge : t -> int -> int -> int -> unit
(** [add_edge net u v cap] adds a directed edge of capacity [cap].
    Parallel edges are allowed. *)

val max_flow : t -> int
(** Runs Dinic's algorithm and returns the value of a maximum
    source-to-sink flow. May be called once per network. *)

val min_cut_side : t -> bool array
(** After [max_flow], the set of nodes reachable from the source in the
    residual network ([true] entries); its outgoing saturated edges form
    a minimum cut. *)
