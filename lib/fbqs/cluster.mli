(** Consensus clusters (Definitions 3 and 4, after Losa et al.). *)

open Graphkit

val quorum_available : Quorum.system -> Pid.Set.t -> bool
(** Quorum availability of a candidate set [I]: every member of [I] has
    a quorum of its own contained in [I]. Equivalent to the greatest
    quorum within [I] being [I] itself (quorums are closed under union),
    which is how it is computed. False for the empty set. *)

val is_consensus_cluster :
  Quorum.system ->
  correct:Pid.Set.t ->
  mode:Intertwine.mode ->
  Pid.Set.t ->
  bool
(** Definition 3: the set is a non-empty subset of [correct], is
    intertwined under [mode], and is quorum-available. *)

val maximal_clusters :
  Quorum.system ->
  correct:Pid.Set.t ->
  mode:Intertwine.mode ->
  unit ->
  Pid.Set.t list
(** All inclusion-maximal consensus clusters, by exhaustive enumeration
    over subsets of [correct]. Intended for paper-scale examples;
    inherits the [|correct| <= 20] guard. *)

val grand_cluster :
  Quorum.system ->
  correct:Pid.Set.t ->
  mode:Intertwine.mode ->
  unit ->
  bool
(** The paper's solvability condition: the set of {e all} correct
    processes forms a consensus cluster (hence the unique maximal one,
    [C = W]). Polynomial: one availability fixpoint plus the pairwise
    intertwinement check. *)
