(** Consensus values.

    A value is a finite set of integers, standing for a batch of
    transactions as in the Stellar ledger: nomination can then merge
    candidate values with a deterministic, associative, commutative
    [combine] (set union), exactly the property SCP's nomination
    protocol requires. *)

type t

val of_ints : int list -> t

val empty : t

val is_empty : t -> bool

val singleton : int -> t

val union : t -> t -> t

val combine : t list -> t
(** Deterministic merge of candidate values (set union); [empty] for
    the empty list. *)

val compare : t -> t -> int
(** Total order (by cardinality, then lexicographically on elements) —
    ballots need a total order on values. *)

val equal : t -> t -> bool

val hash : t -> int
(** A non-negative hash consistent with {!equal}. *)

val judge : proposed:t -> t list -> bool * bool
(** [judge ~proposed decided] is the [(agreement, validity)] verdict
    of a run whose processes decided [decided]: agreement when those
    values are all equal (vacuously for fewer than two), validity when
    each is a subset of [proposed] — transaction-set semantics, every
    decided transaction was proposed by someone. *)

val pp : Format.formatter -> t -> unit

val to_list : t -> int list
