(** Ballots of the SCP ballot protocol: a counter paired with a value,
    totally ordered lexicographically. *)

type t = { counter : int; value : Value.t }

val make : int -> Value.t -> t

val compare : t -> t -> int

val equal : t -> t -> bool

val hash : t -> int
(** A non-negative hash consistent with {!equal}. *)

val compatible : t -> t -> bool
(** Two ballots are compatible when they carry the same value;
    preparing a ballot aborts every lower {e incompatible} ballot. *)

val less_and_incompatible : t -> t -> bool
(** [less_and_incompatible b b'] holds when [b < b'] and they are
    incompatible — the ballots that voting [prepare b'] aborts. *)

val pp : Format.formatter -> t -> unit
