(** Quorums of a Federated Byzantine Quorum System (Definition 1 and
    Algorithm 1 of the paper).

    The membership tests run on a dense bitset compilation of the
    system ({!Pid.Dense_set}): threshold slice sets reduce to one
    popcount per distinct member set and candidate. Compilation is a
    first-class step — {!Compiled.compile} once, query many times —
    and the compiled value is immutable. A caller whose system evolves
    mid-run keeps its own handle (SCP federated voting recompiles its
    view when it learns a slice declaration, [Scp.Fvoting]), and so
    does the {!Enum} analyzer, whose handle lives exactly as long as
    the analyzer. The small-system analyses share handles through
    {!compiled_of}.
    Process ids are non-negative: every query raises
    [Invalid_argument] on a system or candidate set naming a negative
    pid, as {!Pid.Dense_set} does. See DESIGN.md §8 and §9. *)

open Graphkit

type system = Slice.t Pid.Map.t
(** A slice assignment: one slice set per process. Processes absent
    from the map have declared nothing (e.g. Byzantine processes that
    stay silent); they can never satisfy the per-member slice condition
    and hence belong to no quorum. *)

val system_of_list : (Pid.t * Slice.t) list -> system

val slices_of : system -> Pid.t -> Slice.t
(** The slice set declared by a process; [Explicit []] when absent. *)

val participants : system -> Pid.Set.t
(** Processes with a declared slice set. *)

(** The compilation API: compile a system once into the dense bitset
    form, then run membership queries against the compiled value. *)
module Compiled : sig
  type t
  (** A compiled system. Immutable, so one handle may serve any number
      of concurrent queries. *)

  val compile : system -> t
  (** @raise Invalid_argument when the system names a negative pid, as
      an owner or as a slice member. *)

  val system : t -> system
  (** The system this value was compiled from. *)

  val is_quorum : t -> Pid.Set.t -> bool
  (** Algorithm 1: [Q] is a quorum iff it is non-empty and every
      [i ∈ Q] has a slice contained in [Q]. (The empty set satisfies
      the definition vacuously but is excluded, matching standard FBQS
      usage.) *)

  val greatest_quorum_within : t -> Pid.Set.t -> Pid.Set.t
  (** The unique largest quorum contained in the given set (possibly
      the empty set, which signals that the set contains no quorum).
      Computed by iteratively discarding members that have no slice
      inside the remaining set; correctness follows from quorums being
      closed under union. *)

  (** {3 Dense-bitset variants}

      The same queries, over {!Pid.Dense_set} candidates — no
      [Pid.Set] conversion on either side. These are the inner-loop
      entry points of the {!Enum} branch-and-bound analyzer, which
      evaluates thousands of candidate sets per enumeration. *)

  val is_quorum_d : t -> Pid.Dense_set.t -> bool

  val greatest_quorum_keeping_d :
    t -> keep:Pid.Dense_set.t -> Pid.Dense_set.t -> Pid.Dense_set.t option
  (** [greatest_quorum_keeping_d c ~keep s] is [Some g] when the
      greatest quorum [g] within [s] contains [keep], and [None]
      otherwise. It runs the rounds of {!greatest_quorum_within} but
      stops at the first round that drops a member of [keep]: rounds
      only shrink the candidate, so from then on [keep ⊄ g] is
      decided. The branch bound and the minimality check of {!Enum}
      need only this answer. *)

  val greatest_quorum_within_d : t -> Pid.Dense_set.t -> Pid.Dense_set.t
  (** {!greatest_quorum_keeping_d} with an empty [keep], which every
      greatest quorum contains: the same fixpoint, run to the end. *)

  val domain_d : t -> Pid.t -> Pid.Dense_set.t
  (** The compiled [Slice.domain (slices_of (system c) i)]: the union
      of [i]'s explicit slices, or its threshold member set when that
      threshold can be met; empty for a process with no slices. *)

  val is_v_blocking_d : t -> Pid.t -> Pid.Dense_set.t -> bool
  (** [is_v_blocking_d c i b]: [i] declares at least one slice and [b]
      meets every slice of [i] (with no slices nothing can be accepted
      through blocking). Exact, because a slice avoids [b] iff it lies
      within [domain_d c i] minus [b]. *)
end

(** {2 The shared compiled-handle cache}

    A process-wide {!Core.Cache} instance keyed by physical equality
    of the system value, holding 64 entries. *)

val compiled_of : system -> Compiled.t
(** The cache lookup itself: the compiled handle for [sys], reused
    while the same system value stays hot. For callers that ask one
    live system many questions through separate calls: {!enum_quorums}
    and the brute-force analyses of [Cluster], [Dset] and [Analysis].
    A caller that holds its handle for as long as it needs it, as
    {!Enum.prepare} does, calls {!Compiled.compile} instead, so that
    no dead system stays cached. *)

val cache_stats : unit -> Core.Cache.stats
(** Cumulative shared-cache accounting for this process. The same
    record shape as
    {!Graphkit.Csr.cache_stats} and every other {!Core.Cache}
    instance. *)

val set_cache_capacity : int -> unit
(** Resizes the shared cache (64 entries until called).
    @raise Invalid_argument below 1. *)

val delete : system -> Pid.Set.t -> system
(** Mazières' delete operation: removes the nodes of [b] from the
    system and from every slice of the remaining nodes (threshold
    slices keep their symbolic form, with the threshold reduced by the
    number of deleted members). It lives here so the {!Enum} analyzer
    and the {!Dset} layer share one definition. *)

(** {2 Enumeration} *)

val enum_quorums : system -> Pid.Set.t list
(** All quorums of the system's participants. Exponential in their
    number; guarded to at most 20 participants.
    @raise Invalid_argument beyond the guard. *)

val minimal_quorums : system -> Pid.Set.t list
(** The inclusion-minimal quorums. *)

val minimal_quorums_of : system -> Pid.t -> Pid.Set.t list
(** The inclusion-minimal elements of [Q_i] (quorums of process [i]).
    Every quorum of [i] contains one of these, so
    universally quantified intersection properties need only be checked
    on this list. *)
