(** Process identities.

    Every participant of the system is named by a small non-negative
    integer. This module fixes that representation and provides the
    specialised sets and maps used across the whole code base, so that
    protocol code never manipulates bare [int] containers. *)

type t = int
(** A process identity. *)

val compare : t -> t -> int

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit

module Set : sig
  include Set.S with type elt = t

  val pp : Format.formatter -> t -> unit

  val of_range : int -> int -> t
  (** [of_range lo hi] is the set [{lo, lo+1, ..., hi}]; empty if
      [hi < lo]. *)

  val to_string : t -> string

  val choose_distinct : int -> t -> elt list option
  (** [choose_distinct k s] returns [k] distinct elements of [s] in
      increasing order, or [None] if [cardinal s < k]. *)

  val fold_subsets : (t -> 'a -> 'a) -> t -> 'a -> 'a
  (** [fold_subsets f s acc] folds [f] over all [2^|s|] subsets of [s]:
      subset [k], for [k] from [0] to [2^|s| - 1], holds the [b]-th
      smallest element of [s] iff bit [b] of [k] is set. The empty set
      comes first and [s] itself last. The exhaustive enumerations of
      the small-system analyses ([Fbqs.Quorum.enum_quorums] and its
      peers) all visit subsets in this order.
      @raise Invalid_argument when [s] has more than 20 elements. *)
end

module Dense_set : sig
  (** Dense bitsets of process ids.

      Process ids are small non-negative integers, so a whole system
      fits in a few machine words: word [w], bit [b] encodes membership
      of pid [w * Sys.int_size + b]. Set algebra becomes word-wise
      [land]/[lor] plus popcount, which is what the Algorithm 1 quorum
      kernel ([|Q ∩ members| >= threshold]) bottoms out in. Values are
      immutable, like {!Set}. All operations raise [Invalid_argument]
      on negative ids. *)

  type t

  val empty : t

  val is_empty : t -> bool

  val mem : int -> t -> bool

  val add : int -> t -> t

  val singleton : int -> t

  val remove : int -> t -> t

  val union : t -> t -> t

  val inter : t -> t -> t

  val diff : t -> t -> t

  val cardinal : t -> int

  val inter_cardinal : t -> t -> int
  (** [inter_cardinal a b = cardinal (inter a b)] without materializing
      the intersection: one fused popcount pass. This is the whole cost
      of the symbolic quorum-membership test. *)

  val popcount : int -> int
  (** The number of set bits of one word, the sign bit included: the
      cardinal of a set held in a single machine word. *)

  val subset : t -> t -> bool

  val disjoint : t -> t -> bool

  val equal : t -> t -> bool

  val compare : t -> t -> int
  (** A total order: of two distinct sets, the one holding the lowest
      id of their symmetric difference is the smaller. On sets of equal
      cardinal this is {!Set.compare}'s order. *)

  val compare_word : int -> int -> int
  (** {!compare} on two sets held in single machine words, bit [k]
      standing for the [k]-th id of some ascending list. *)

  type family
  (** A fixed list of sets packed into one flat word array, every
      member padded to the widest member's width: the explicit slices
      of one process in the quorum kernel. *)

  val family : t list -> family

  val exists_subset : family -> t -> bool
  (** [exists_subset (family l) q = List.exists (fun s -> subset s q) l],
      in one loop over the packed words with no call per member — the
      build has no flambda, so a per-member [subset] call is never
      inlined. False on the empty family; true whenever a member is
      empty. *)

  val family_members : family -> t list
  (** The members, in the order {!family} was given them:
      [family_members (family l)] equals [l] element-wise. *)

  val iter : (int -> unit) -> t -> unit
  (** Ascending id order, like [Set.iter]. *)

  val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
  (** Ascending id order, like [Set.fold]. *)

  val for_all : (int -> bool) -> t -> bool

  val exists : (int -> bool) -> t -> bool

  val filter : (int -> bool) -> t -> t

  val elements : t -> int list
  (** Ascending. *)

  val of_list : int list -> t

  val of_range : int -> int -> t
  (** [of_range lo hi] is [{lo, ..., hi}]; empty if [hi < lo]. *)

  val of_set : Set.t -> t

  val to_set : t -> Set.t

  val min_elt_opt : t -> int option

  val max_elt_opt : t -> int option

  val pp : Format.formatter -> t -> unit

  val to_string : t -> string
end

module Map : sig
  include Map.S with type key = t

  val keys : 'a t -> Set.t

  val pp : (Format.formatter -> 'a -> unit) -> Format.formatter -> 'a t -> unit
end
