(** Interprocedural call graph over loaded typed units.

    Nodes are toplevel value bindings named by canonical dotted path
    (["Cup.Knowledge.sink_result"]); edges go to every identifier a
    binding's body mentions (call, partial application or storage —
    the graph is deliberately conservative). Targets outside the cmt
    set (stdlib, external libraries) are kept as plain names; the P1
    taint seeds live there. *)

type node = {
  name : string;  (** canonical dotted name *)
  source : string;  (** build-relative source of the defining unit *)
  line : int;  (** definition site *)
  mutable edges : string list;  (** sorted, deduplicated *)
}

type t

val build : Loader.t -> t

val find : t -> string -> node option

val unit_nodes : t -> string -> node list
(** The nodes declared by a compilation unit (by mangled modname). *)

val references : Typedtree.expression -> Path.t list
(** Every identifier mentioned inside an expression, in traversal
    order. *)

val taint : t -> seed:(string list -> bool) -> (string, string list) Hashtbl.t
(** Backward reachability: every node from which a name whose
    canonical components satisfy [seed] is reachable, mapped to a
    witness chain (node first, seed name last). Deterministic:
    propagation visits nodes in sorted order, shortest chains win. *)

val reachable : t -> string list -> (string, string list) Hashtbl.t
(** Forward reachability from a set of canonical start names, mapped
    to the chain from a start (start first). *)
