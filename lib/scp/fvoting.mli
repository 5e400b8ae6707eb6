(** The federated voting core (Mazières 2015; Section III-D semantics).

    For each statement a node tracks who voted and who accepted it, and
    answers the two questions the FBQS transition rules ask of a tally
    ({!quorum_within} and {!v_blocking}):

    - {b accept}: some quorum containing this node voted-or-accepted the
      statement, {e or} a v-blocking set accepted it (the v-blocking arm
      lets a node accept a statement it did not vote for);
    - {b confirm}: some quorum containing this node accepted it (the
      node "ratifies" the acceptance).

    The rules themselves are applied by [Scp.Node], which adds prepare
    subsumption and the check against contradicting acceptances.

    Each tallied statement carries a dirty flag, so that a node re-checks
    only the statements an envelope could have moved ({!iter_dirty}).
    The flag is set when the statement is first tallied, when its voters
    or acceptors grow, when a compatible prepare at or above its counter
    grows (if it is a prepare: [Scp.Node] merges those tallies into its
    check), and, for every statement, when [system ()] returns a value
    physically different from the one the flags were last checked
    against. Setting a voted, accepted or confirmed mark does not set
    it: a mark only ever turns a check false. Flags persist across
    calls, so a vote recorded outside a check (a ballot jump, a
    nomination round) is still seen by the next one.

    Quorum membership is evaluated against a slice system: a set [S]
    holds a quorum containing the node iff the node belongs to the
    greatest quorum within [S]. The node's own assertion counts only
    once it is in the tally (the node records it when it broadcasts).
    The checks run on a compiled view of the system, kept per voter
    and recompiled only when the system value changes. *)

open Graphkit

type tally = private {
  mutable voters : Pid.Dense_set.t;  (** nodes seen voting-or-accepting *)
  mutable acceptors : Pid.Dense_set.t;  (** nodes seen accepting *)
  mutable i_voted : bool;
  mutable i_accepted : bool;
  mutable i_confirmed : bool;
  mutable dirty : bool;
      (** an input of the statement's accept or confirm check may have
          grown since {!iter_dirty} last handed it out *)
}
(** A statement's live record. Each tallied statement has exactly one,
    which the recording and marking functions below update in place and
    never replace, so a record obtained from {!tally} or an iterator
    always reflects the latest state. *)

type t

val create :
  ?metrics:Obs.Metrics.t ->
  self:Pid.t ->
  system:(unit -> Fbqs.Quorum.system) ->
  unit ->
  t
(** [system] is consulted at every evaluation, so the slice knowledge
    may grow while voting is under way (nodes learn declarations from
    envelopes); the view is recompiled when [system ()] returns a value
    physically different from the last one. [metrics] counts the quorum
    and v-blocking evaluations ([scp_quorum_checks],
    [scp_vblocking_checks]) and, once per quorum evaluation, whether
    the view was reused ([fbqs_cache_hits]) or compiled
    ([fbqs_cache_misses]); so hits + misses = quorum checks. *)

val tally : t -> Statement.t -> tally
(** The live record of a statement; for a statement never tallied, a
    fresh all-empty record that is not stored. *)

val record_vote : t -> Statement.t -> Pid.t -> unit
(** Registers that a node voted for the statement (also counts implied
    statements). Recording is idempotent: only a new voter sets dirty
    flags. *)

val record_accept : t -> Statement.t -> Pid.t -> unit
(** Registers an acceptance (an acceptance also counts as
    vote-or-accept, and propagates to implied statements). Only a new
    acceptor sets dirty flags. *)

val set_voted : t -> Statement.t -> unit
(** Marks the local vote (the caller must also broadcast it and call
    {!record_vote} for itself). *)

val quorum_within : t -> Pid.Dense_set.t -> bool
(** [quorum_within t s]: some quorum containing this node lies within
    [s], i.e. this node belongs to the greatest quorum within [s]. *)

val v_blocking : t -> Pid.Dense_set.t -> bool
(** [v_blocking t b]: [b] meets every slice of this node, which
    declares at least one. *)

val mark_accepted : t -> Statement.t -> unit

val mark_confirmed : t -> Statement.t -> unit

(** {2 Iterating over the tallies}

    Each runs over the statements tallied when the call starts, with
    their live records; a statement first tallied during the call is
    not visited. {!iter_dirty}, {!iter} and {!fold} visit in statement
    order. *)

val iter_dirty : (Statement.t -> tally -> unit) -> t -> unit
(** [iter_dirty f t] first dirties every statement if [system ()] is
    physically new, then calls [f] on each statement whose flag is set
    when its turn comes, clearing the flag just before the call. A
    statement [f] dirties again that comes later in statement order is
    visited in the same call; one that came earlier waits for the next
    call. *)

val iter : (Statement.t -> tally -> unit) -> t -> unit

val fold : (Statement.t -> tally -> 'a -> 'a) -> t -> 'a -> 'a

val exists : (Statement.t -> tally -> bool) -> t -> bool

val for_all : (Statement.t -> tally -> bool) -> t -> bool
