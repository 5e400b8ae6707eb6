(** The library's one seeded generator: a draw-for-draw port of OCaml
    5.1's [Random.State] (MD5 seeding, the L64X128 LXM step), so a seed
    draws the same stream on every compiler. A draw allocates nothing. *)

type t

val make : int array -> t
(** The state [Random.State.make] builds from the same seed on OCaml 5. *)

val int : t -> int -> int
(** Uniform in [\[0, bound)], as [Random.State.int].
    @raise Invalid_argument unless [0 < bound < 2^30]. *)

val float : t -> float -> float
(** Uniform in [\[0, bound\]], as [Random.State.float]. *)

val bool : t -> bool

val sample : t -> int -> 'a array -> 'a array
(** [sample t k a] draws [min k (length a)] distinct entries of [a]
    uniformly, by a partial Fisher–Yates shuffle of a copy. *)
