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

val quorum_availability_despite : Quorum.system -> Pid.Set.t -> bool
(** The survivors [participants sys \ b] form a quorum of the
    {e original} system, or [b] covers every participant (availability
    is judged before deletion, intersection after — Mazières'
    definition). *)

val is_dset : Quorum.system -> Pid.Set.t -> bool
(** [b] is dispensable: {!quorum_availability_despite} holds, and every
    two quorums of the system with [b] deleted
    ({!Quorum.Compiled.delete}) intersect ({!Enum.intersects_despite},
    which scales to live-network topologies). *)

val minimal_dsets : Quorum.system -> Pid.Set.t list
(** All inclusion-minimal DSets, by enumeration (guarded to systems of
    at most 20 participants). *)

val intact : Quorum.system -> faulty:Pid.Set.t -> Pid.Set.t
(** The nodes [v] for which some DSet contains all of [faulty] and not
    [v]. Empty when no DSet covers the faulty set. *)

val befouled : Quorum.system -> faulty:Pid.Set.t -> Pid.Set.t
(** The complement: participants that are not intact. *)
