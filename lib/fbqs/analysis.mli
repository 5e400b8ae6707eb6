(** Health analysis of a federated Byzantine quorum system — the
    questions operators of a real Stellar-like network ask (in the
    spirit of the fbas-analyzer / stellarbeat tooling), computed exactly
    on paper-scale systems.

    {!min_blocking_sets} and {!liveness_level} enumerate subsets with
    {!Graphkit.Pid.Set.fold_subsets}, so they inherit its [<= 20]
    element guard; {!safety_level} runs on {!Enum} instead, guarded
    to 62 participants. The minimal quorums, top tier and splitting
    sets of a system are {!Enum} questions: ask {!Enum} directly. *)

open Graphkit

val blocking_cascade : Quorum.system -> down:Pid.Set.t -> Pid.Set.t
(** The cascade of unavailability: starting from the [down] set, a node
    halts when a halted set blocks it (every one of its slices contains
    a halted node); halting nodes can halt further nodes. Returns the
    full set of halted nodes (including [down]). This is the
    "v-blocking closure" governing SCP liveness. *)

val min_blocking_sets : Quorum.system -> Pid.t -> Pid.Set.t list
(** Inclusion-minimal sets that block the given node (intersect all its
    slices). Empty when the node declared no slices. *)

val liveness_level : Quorum.system -> int
(** The size of the smallest set of nodes whose failure halts (cascades
    to) every participant: how many targeted failures the system's
    liveness survives is [liveness_level - 1]. Returns the number of
    participants + 1 when no such set exists within the participants
    (cannot happen for non-empty systems, since taking everything
    halts everything). *)

val safety_level : Quorum.system -> int
(** The size of the smallest set of nodes whose deletion breaks quorum
    intersection (two surviving quorums become disjoint): the system's
    safety survives [safety_level - 1] targeted Byzantine failures.
    Returns participants + 1 when intersection cannot be broken (e.g.
    systems whose every pair of quorums shares some indelible node —
    rare; or trivial single-quorum systems). If quorum intersection
    already fails with nobody deleted, this is [0]. Backed by
    {!Enum.minimal_splitting_sets} over the full participant set. *)
