(** Dispensable sets (DSets) and intact nodes, from the original FBAS
    theory (Mazières 2015) that the paper's Stellar model builds on.

    A set [B] of nodes is {e dispensable} when the system works
    perfectly despite every member of [B] failing: the system obtained
    by deleting [B] still enjoys quorum availability (the surviving
    nodes contain a quorum) and quorum intersection (any two surviving
    quorums meet). A node is {e intact} for a failure set [F] when some
    DSet contains all of [F] but not the node; intact nodes are the ones
    FBAS optimality results protect. The consensus-cluster notion used
    by the paper (Losa et al.) generalizes exactly this machinery, so
    having both allows cross-checking. *)

open Graphkit

val delete : Quorum.system -> Pid.Set.t -> Quorum.system
(** [delete sys b] removes the nodes of [b] from the system and from
    every slice of the remaining nodes (Mazières' "delete" operation).
    Alias of {!Quorum.delete}. *)

val quorum_intersection_despite : Quorum.system -> Pid.Set.t -> bool
(** Every two quorums of [delete sys b] intersect. Vacuously true when
    the deleted system has at most one quorum. Delegates to
    {!Enum.quorum_intersection_despite}, so it scales to live-network
    topologies (no participant-count guard). *)

val quorum_availability_despite : Quorum.system -> Pid.Set.t -> bool
(** The survivors [participants sys \ b] form a quorum of the
    {e original} system, or [b] covers every participant (availability
    is judged before deletion, intersection after — Mazières'
    definition). *)

val is_dset : Quorum.system -> Pid.Set.t -> bool

val minimal_dsets : Quorum.system -> Pid.Set.t list
(** All inclusion-minimal DSets, by enumeration (guarded to systems of
    at most 20 participants). *)

val intact : Quorum.system -> faulty:Pid.Set.t -> Pid.Set.t
(** The nodes [v] for which some DSet contains all of [faulty] and not
    [v]. Empty when no DSet covers the faulty set. *)

val befouled : Quorum.system -> faulty:Pid.Set.t -> Pid.Set.t
(** The complement: participants that are not intact. *)
