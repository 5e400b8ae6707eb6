(** The statements federated voting runs over.

    SCP is federated voting applied to three statement families:
    nomination ("value v should be among the composite"), prepare
    ("ballot b is prepared — all lower incompatible ballots are
    aborted") and commit ("ballot b's value is decided"). *)

type t =
  | Nominate of Value.t
  | Prepare of Ballot.t
  | Commit of Ballot.t

val compare : t -> t -> int

val equal : t -> t -> bool

val hash : t -> int
(** A hash consistent with {!equal}. *)

val pp : Format.formatter -> t -> unit

val implied : t -> t list
(** Statements logically implied by a statement: [Commit b] implies
    [Prepare b] (committing requires the ballot to be prepared), so a
    vote or acceptance of the former also counts for the latter. *)

module Map : Map.S with type key = t
