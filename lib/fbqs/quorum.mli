(** Quorums of a Federated Byzantine Quorum System (Definition 1 and
    Algorithm 1 of the paper).

    The membership tests run on a dense bitset compilation of the
    system ({!Pid.Dense_set}): threshold slice sets reduce to one
    popcount per distinct member set and candidate. Compilation is a
    first-class step — {!Compiled.compile} once, query many times —
    and the compiled value is immutable and stands alone: it keeps its
    participants and its slices as bitsets, not the system it was
    compiled from, and {!Compiled.delete} removes nodes from it
    directly. A caller whose system evolves
    mid-run keeps its own handle (SCP federated voting recompiles its
    view when it learns a slice declaration, [Scp.Fvoting]), and so
    does the {!Enum} analyzer, whose handle lives exactly as long as
    the analyzer. The small-system analyses ({!enum_quorums}, [Cluster],
    [Dset], [Analysis]) compile once per call and pass the handle down
    their own loops; nothing keeps a handle past the call that made
    it.
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

  val participants_d : t -> Pid.Dense_set.t
  (** The processes with a declared slice set, [Explicit []] included:
      {!participants} of the compiled system. *)

  val delete : t -> Pid.Set.t -> t
  (** [delete c b] is Mazières' delete operation on the compiled form:
      the nodes of [b] leave the participants and every slice of the
      remaining nodes, and a threshold slice keeps its symbolic form,
      its threshold reduced by the number of deleted members. Every
      query answers on [delete (compile sys) b] as on the compiled
      tree-set deletion of [sys] ([Oracle.Quorum.delete] in
      [test/oracle]). A pid of [b] that [c] never names, as owner or
      slice member (a negative one, say), deletes nothing, and the
      bitset built from [b] is sized by [c]'s ids, not by [b]'s. It
      serves the despite checks, the splitting candidates of {!Enum}
      and [Dset]. *)

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
      otherwise. It runs the rounds of {!greatest_quorum_within}, but
      answers [None] at once when [keep ⊄ s], and each round tests the
      members of [keep] first and answers [None] at the first one that
      fails: a member that fails a round lies outside [g]. The branch
      bound and the minimality check of {!Enum}, and SCP's quorum
      check, need only this answer. *)

  val greatest_quorum_within_d : t -> Pid.Dense_set.t -> Pid.Dense_set.t
  (** {!greatest_quorum_keeping_d} with an empty [keep], which every
      greatest quorum contains: the same fixpoint, run to the end. *)

  val domain_d : t -> Pid.t -> Pid.Dense_set.t
  (** The compiled [Slice.domain (slices_of sys i)]: the union
      of [i]'s explicit slices, or its threshold member set when that
      threshold can be met; empty for a process with no slices. *)

  val is_v_blocking_d : t -> Pid.t -> Pid.Dense_set.t -> bool
  (** [is_v_blocking_d c i b]: [i] declares at least one slice and [b]
      meets every slice of [i] (with no slices nothing can be accepted
      through blocking). Exact, because a slice avoids [b] iff it lies
      within [domain_d c i] minus [b]. *)

  (** {3 The word view}

      A search that never leaves a member set [u] of at most
      {!word_bits} pids runs on one machine word per candidate: bit [k]
      is the [k]-th smallest pid of [u], so ascending bit order is
      ascending pid order, and each member of [u] keeps only its
      slices inside [u] (an explicit slice reaching outside [u] is
      contained in no candidate, and a threshold class meets a
      candidate only inside [u]). {!is_quorum_w} and
      {!greatest_quorum_keeping_w} are exact on every candidate inside
      [u] and allocate nothing. *)

  type words
  (** The word view of one member set. Immutable. *)

  val word_bits : int
  (** 62: the largest member set with a word view. *)

  val words : t -> Pid.Dense_set.t -> words
  (** [words c u]: the view of [c] restricted to [u].
      @raise Invalid_argument when [u] has more than {!word_bits}
      members. *)

  val universe_w : words -> int
  (** The view's whole member set: its [n] lowest bits. *)

  val set_of_word : words -> int -> Pid.Set.t

  val word_of_set : words -> Pid.Set.t -> int
  (** The bits of the set's members that lie in the view's member set:
      {!set_of_word}'s inverse on subsets of it. *)

  val is_quorum_w : words -> int -> bool
  (** {!is_quorum_d} on the candidate the bits name. *)

  val greatest_quorum_keeping_w : words -> keep:int -> int -> int
  (** {!greatest_quorum_keeping_d} on the sets the bits name, with
      [-1] (a word no view's set equals) for [None]. *)
end

val cache_stats : unit -> Core.Cache.stats
(** All zero: no process-wide cache of compiled handles exists. Kept
    only because the benchmark harness still reads it (ROADMAP item 5
    removes it with the harness's own next change). *)

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
