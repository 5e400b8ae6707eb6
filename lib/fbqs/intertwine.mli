(** Intertwined sets of processes (Definition 2 and the threshold-based
    variant of Section III-F). *)

open Graphkit

type mode =
  | Correct_witness of Pid.Set.t
      (** Definition 2: every pair of quorums intersects in at least one
          member of the given correct set [W]. *)
  | Threshold of int
      (** Section III-F: every pair of quorums intersects in more than
          [f] processes. *)

val pair_intertwined : Quorum.system -> mode -> Pid.t -> Pid.t -> bool
(** [pair_intertwined sys mode i j]: every quorum of [i] and every
    quorum of [j] intersect as demanded by [mode].
    Checked on inclusion-minimal quorums, which is sufficient because
    intersections only grow under supersets. Vacuously true when either
    process has no quorum. *)

val set_intertwined : Quorum.system -> mode -> Pid.Set.t -> bool
(** Definition 2 over a whole set: all (unordered, including reflexive)
    pairs are intertwined. *)

val violating_pair :
  Quorum.system ->
  mode ->
  Pid.Set.t ->
  (Pid.t * Pid.Set.t * Pid.t * Pid.Set.t) option
(** A witness [(i, Q_i, j, Q_j)] of an intersection violation inside the
    given set, if any — the shape of the Theorem 2 counter-example. *)

val member_quorums : Quorum.system -> Pid.Set.t -> (Pid.t * Pid.Set.t list) list
(** Each member of the set, ascending, with its inclusion-minimal
    quorums ({!Quorum.minimal_quorums_of}). *)

val violation :
  mode ->
  (Pid.t * Pid.Set.t list) list ->
  (Pid.t * Pid.Set.t * Pid.t * Pid.Set.t) option
(** {!violating_pair} on lists {!member_quorums} computed: a caller
    that asks about many subsets of one set computes the lists once
    and hands down the members of each subset, in the same order. *)

val threshold_pair_ok : f:int -> Pid.Set.t -> Pid.Set.t -> bool
(** The raw Section III-F test: [|q ∩ q'| > f]. *)
