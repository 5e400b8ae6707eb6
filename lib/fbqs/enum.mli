(** Branch-and-bound enumeration analyzer for FBQS at live-network
    scale.

    The brute-force paths in {!Quorum}, {!Dset} and {!Analysis}
    enumerate subsets and are capped at 20 participants; real Stellar
    topologies have hundreds of validators. Deciding quorum
    intersection is NP-hard (Lachowski, {i Complexity of the quorum
    intersection property}), so this module takes the pruned-search
    route of Gaul et al. ({i Mathematical Analysis and Algorithms for
    FBAS}):

    - contract the search space to the greatest quorum, then to the
      strongly connected components of the trust graph that contain a
      quorum (every minimal quorum lies inside exactly one such SCC —
      on live topologies this is the small top tier);
    - branch on pid-in/pid-out decisions, bounding each branch with
      one [greatest_quorum_within] call: a branch can still yield a
      quorum iff its committed members survive in the greatest quorum
      of its remaining pool (exact, because quorums are closed under
      union). The walk is written once and runs on one machine word per
      set when the quorum-bearing SCC has at most 62 members
      ({!Quorum.Compiled.words}), on dense bitsets past that; both visit
      the same tree.

    Everything downstream — intersection checking, blocking sets,
    splitting sets, top tier — is built on that streaming enumeration,
    except the questions that want only intersection's yes or no
    ({!quorum_intersection_despite} and the splitting candidates). They
    run the same walk bounded at half the quorum-bearing SCC and stop
    at the first quorum whose complement holds another (Lachowski's
    reduction, exact; see DESIGN.md §13). All outputs are in a
    canonical deterministic order (ascending cardinality, then
    {!Pid.Set.compare}), so reports are byte-stable.

    Every entry point takes [?jobs] (default 1): with [jobs > 1] the
    search tree is cut at a fixed frontier depth and the independent
    subtrees run through {!Simkit.Exec.map} on the persistent worker
    pool. Each search is one walk, run to the frontier by the caller
    and below it by the jobs. The canonical ordering makes the merged
    output independent of the partition and the jobs' tallies are
    summed back into the analyzer, so results, [stats] and driven
    metrics are byte-identical at every [jobs] count, on both executor
    backends. See DESIGN.md §18.

    Process ids are non-negative: {!prepare} raises [Invalid_argument]
    on a system naming a negative pid, like {!Quorum.Compiled.compile}.
    Equivalence with the brute-force paths (the subset sweep of
    {!Quorum.enum_quorums} and the oracles in [test/oracle]) at small
    [n] is property-tested in [test/test_enum.ml]. See DESIGN.md §13. *)

open Graphkit

type t
(** A prepared analyzer: a compiled system plus search statistics.
    The analyzer holds its compiled handle for its whole life; the
    handle is immutable, so the caller that compiled it may keep and
    reuse it (the daemon's file cache does). The contraction to
    quorum-bearing SCCs and the minimal quorums are computed once on
    first demand and kept in [t], so nothing of an analysis outlives
    its [t]. *)

type stats = {
  explored : int;  (** search-tree nodes visited *)
  pruned : int;  (** branches cut by the viability bound *)
  found : int;
      (** quorums the walks emitted: every minimal quorum of an
          enumeration, and at most one hit per intersection decision *)
}

val of_compiled : ?metrics:Obs.Metrics.t -> Quorum.Compiled.t -> t
(** An analyzer over a compiled system. When [metrics] is given, the
    search also drives the [fbqs_enum_explored] / [fbqs_enum_pruned] /
    [fbqs_enum_quorums_found] counters, so analysis runs are traceable
    like every other subsystem. *)

val prepare : ?metrics:Obs.Metrics.t -> Quorum.system -> t
(** {!of_compiled} on a fresh {!Quorum.Compiled.compile} of the system.
    @raise Invalid_argument when the system names a negative pid. *)

val participants : t -> Pid.Set.t
(** The compiled system's participants ({!Quorum.participants}). *)

val stats : t -> stats
(** Cumulative counters for this analyzer value. *)

val minimal_quorums : ?jobs:int -> t -> Pid.Set.t list
(** All inclusion-minimal quorums, in canonical order. Cached (so
    [jobs] only matters on the first call per analyzer). *)

val top_tier : ?jobs:int -> t -> Pid.Set.t
(** Union of all minimal quorums: the nodes that matter for
    consensus. *)

type intersection =
  | Intersects  (** every two quorums share a node (vacuous if none) *)
  | Disjoint of Pid.Set.t * Pid.Set.t  (** a witness pair *)

val check_intersection : ?jobs:int -> t -> intersection
(** Decides quorum intersection. Two distinct quorum-bearing SCCs
    short-circuit to [Disjoint] without any search; otherwise the
    minimal quorums are enumerated (parallel with [jobs > 1], and
    cached for later calls) and each is tested for a quorum surviving
    in its complement — any disjoint pair can be shrunk so that one
    side is minimal, so the scan is exact. The witness is the first
    such quorum in canonical order, independent of [jobs] and of the
    calls made on [t] before. *)

val quorum_intersection :
  ?metrics:Obs.Metrics.t -> ?jobs:int -> Quorum.system -> intersection
(** One-shot [check_intersection] on a freshly prepared system. *)

val intersects_despite :
  ?metrics:Obs.Metrics.t -> ?jobs:int -> Quorum.Compiled.t -> Pid.Set.t -> bool
(** Whether the system after [Quorum.Compiled.delete c b] enjoys
    intersection — the scalable engine behind the despite checks and
    {!Dset.is_dset}. Decided, not enumerated: with one quorum-bearing
    SCC [U], the walk builds selections of at most ⌊|U|/2⌋ members and
    stops at the first quorum [s] with a quorum in [U \ s]; zero or
    several such SCCs answer without a search. The answer is
    {!check_intersection}'s, with no witness and a far smaller tree.
    The decision stops at its first hit, so it runs sequentially at
    every [jobs] count. [c] is left as it is, so a caller holding a
    handle asks any number of deletions of it. *)

val quorum_intersection_despite :
  ?metrics:Obs.Metrics.t -> ?jobs:int -> Quorum.system -> Pid.Set.t -> bool
(** {!intersects_despite} on a fresh {!Quorum.Compiled.compile} of the
    system. *)

type blocking = {
  sets : Pid.Set.t list;
  complete : bool;  (** [false] iff the [limit] cut enumeration short *)
}

val minimal_blocking_sets : ?limit:int -> ?jobs:int -> t -> blocking
(** Inclusion-minimal sets whose failure leaves no functioning quorum.
    Availability is judged on the original system, so these are
    exactly the minimal hitting sets of the minimal-quorum family,
    enumerated by branch-and-bound (each set reached once). [limit]
    caps the number of sets returned (default: unlimited); a finite
    [limit] forces the sequential path, because which sets survive a
    truncation depends on discovery order. *)

val minimal_splitting_sets :
  ?metrics:Obs.Metrics.t ->
  ?universe:Pid.Set.t ->
  ?max_size:int ->
  ?jobs:int ->
  t ->
  Pid.Set.t list
(** Inclusion-minimal sets whose deletion breaks quorum intersection.
    Deletion is not monotone (deleting everything yields a vacuously
    intersecting system), so candidates are swept in increasing
    cardinality over [universe] (default: the top tier) with supersets
    of found splitting sets skipped — exact for minimality within the
    universe. Exponential in [|universe|]: [max_size] (default
    [|universe|]) bounds the sweep for live-scale systems. Each
    candidate is decided as {!quorum_intersection_despite} decides.
    Returns [[∅]] when intersection already fails with nothing
    deleted.
    With [jobs > 1] each cardinality layer's candidates are checked
    in parallel (they are independent: a candidate can only be a
    superset of a strictly smaller splitting set), and when [metrics]
    is given the per-candidate tallies are summed into it — identical
    counters at every [jobs] count.
    @raise Invalid_argument when the universe exceeds 62 pids. *)
