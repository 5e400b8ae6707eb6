(** Quorums of a Federated Byzantine Quorum System (Definition 1 and
    Algorithm 1 of the paper).

    The membership tests run on a dense bitset compilation of the
    system ({!Pid.Dense_set}): threshold slice sets reduce to one
    popcount per distinct member set and candidate. Compilation is a
    first-class step — {!Compiled.compile} once, query many times —
    and each compiled system counts its own queries and popcounts for
    the observability layer. The historical implicit entry points
    ({!is_quorum} on a raw [system]) remain as thin wrappers over a
    bounded per-system-value cache; they suit callers whose system
    evolves mid-run (SCP federated voting learns slices from
    envelopes), while stable-system callers should compile explicitly.
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

(** The explicit compilation API: compile a system once into the dense
    bitset form, then run membership queries against the compiled
    value. *)
module Compiled : sig
  type t
  (** A compiled system. Mutable only in its query/popcount counters;
      the compiled structure itself is immutable. *)

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

  val is_quorum_of : t -> Pid.t -> Pid.Set.t -> bool
  (** A quorum {e of} process [i]: a quorum containing [i]. *)

  val greatest_quorum_within : t -> Pid.Set.t -> Pid.Set.t
  (** The unique largest quorum contained in the given set (possibly
      the empty set, which signals that the set contains no quorum).
      Computed by iteratively discarding members that have no slice
      inside the remaining set; correctness follows from quorums being
      closed under union. *)

  val contains_quorum : t -> Pid.Set.t -> bool
  (** Whether some (non-empty) quorum lies within the set. *)

  (** {3 Dense-bitset variants}

      The same queries, over {!Pid.Dense_set} candidates — no
      [Pid.Set] conversion on either side. These are the inner-loop
      entry points of the {!Enum} branch-and-bound analyzer, which
      evaluates thousands of candidate sets per enumeration. *)

  val is_quorum_d : t -> Pid.Dense_set.t -> bool

  val greatest_quorum_within_d : t -> Pid.Dense_set.t -> Pid.Dense_set.t

  val contains_quorum_d : t -> Pid.Dense_set.t -> bool

  type stats = {
    queries : int;  (** membership evaluations answered so far *)
    popcounts : int;  (** dense intersection-cardinality calls *)
  }

  val stats : t -> stats
  (** Cumulative per-compiled-system counters — the kernel-level signal
      surfaced in metrics dumps and BENCH_quorum.json. *)
end

val compile : system -> Compiled.t
(** Alias for {!Compiled.compile}. *)

(** {2 The shared compiled-handle cache}

    A process-wide {!Core.Cache} instance keyed by physical equality
    of the system value: {!compiled_of} answers from it, compiling on
    miss, and the wrappers below route every implicit query through
    it. Capacity defaults to 64 entries and is daemon-overridable
    ({!set_cache_capacity}); hit/miss/evict counters can be surfaced
    in any metrics registry ({!attach_cache_metrics}).

    @deprecated New code holding a stable system should use
    {!Compiled.compile} + the [Compiled] queries; these wrappers remain
    for callers whose system value evolves during a run. *)

val compiled_of : system -> Compiled.t
(** The cache lookup itself: the compiled handle for [sys], reused
    while the same system value stays hot. The {!Enum} analyzer and
    the analysis daemon compile through this, so repeated analyses of
    one system share a handle. *)

val is_quorum : system -> Pid.Set.t -> bool
(** [Compiled.is_quorum] through the implicit cache. *)

val is_quorum_of : system -> Pid.t -> Pid.Set.t -> bool
(** [Compiled.is_quorum_of] through the implicit cache. *)

val greatest_quorum_within : system -> Pid.Set.t -> Pid.Set.t
(** [Compiled.greatest_quorum_within] through the implicit cache. *)

val contains_quorum : system -> Pid.Set.t -> bool
(** [Compiled.contains_quorum] through the implicit cache. *)

val cache_stats : unit -> Core.Cache.stats
(** Cumulative shared-cache accounting for this process — scraped into
    the metrics registry by the runners, and reported by the daemon's
    [stats] verb. The same record shape as {!Graphkit.Csr.cache_stats}
    and every other {!Core.Cache} instance. *)

val set_cache_capacity : int -> unit
(** Resizes the shared cache (default 64 entries).
    @raise Invalid_argument below 1. *)

val attach_cache_metrics : Obs.Metrics.t -> unit
(** Registers the cache's [cache_hits]/[cache_misses]/[cache_evictions]
    counters and [cache_entries] gauge (labelled
    [cache="fbqs_quorum_compiled"]) in the registry. *)

val delete : system -> Pid.Set.t -> system
(** Mazières' delete operation: removes the nodes of [b] from the
    system and from every slice of the remaining nodes (threshold
    slices keep their symbolic form, with the threshold reduced by the
    number of deleted members). {!Dset.delete} re-exports this; it
    lives here so the {!Enum} analyzer can use it without depending on
    the DSet layer built on top of it. *)

(** {2 Enumeration and blocking sets} *)

val enum_quorums : ?universe:Pid.Set.t -> system -> Pid.Set.t list
(** All quorums included in [universe] (default: all participants).
    Exponential in [|universe|]; guarded to [|universe| <= 20].
    @raise Invalid_argument beyond the guard. *)

val minimal_quorums : ?universe:Pid.Set.t -> system -> Pid.Set.t list
(** The inclusion-minimal quorums within [universe]. *)

val minimal_quorums_of : ?universe:Pid.Set.t -> system -> Pid.t -> Pid.Set.t list
(** The inclusion-minimal elements of [Q_i] (quorums of process [i])
    within [universe]. Every quorum of [i] contains one of these, so
    universally quantified intersection properties need only be checked
    on this list. *)

val is_v_blocking : system -> Pid.t -> Pid.Set.t -> bool
(** [is_v_blocking sys i b]: the set [b] intersects every slice of [i].
    Used by SCP federated voting; false when [i] declared no slices
    (with no slices nothing can be accepted through blocking). *)
