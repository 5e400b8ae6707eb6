(** A full SCP node: nomination plus the ballot protocol, built on
    federated voting over the {!Statement} families and driven by the
    simulator.

    Protocol sketch (Mazières 2015, simplified to statement-level
    federated voting as in the formal deconstructions of SCP):

    - {b Nomination}: every node votes to nominate its own initial
      value, and echoes votes for values it sees until it obtains a
      candidate (a {e confirmed} nominated value). Candidates are merged
      with {!Value.combine}.
    - {b Ballots}: with candidates in hand the node walks ballots
      [(n, x)]. It votes [Prepare (n, x)] (aborting lower incompatible
      ballots), accepts/confirms through federated voting, votes
      [Commit] once the ballot is confirmed prepared, and externalizes
      (decides) when [Commit] is confirmed. A timer bumps the counter
      with a freshly combined value when a ballot stalls; accepting a
      higher prepared ballot makes the node jump to it.

    Safety rests solely on quorum intersection of the slice system, so
    running this node over slices that are not intertwined (Theorem 2's
    local slices) exhibits real agreement violations — experiment E3. *)

open Graphkit

type decision = { value : Value.t; ballot : Ballot.t; time : int }

val pp_decision : Format.formatter -> decision -> unit

type nomination_strategy =
  | Echo_all
      (** every node nominates its own value and seconds every value it
          sees until it has a candidate — simple, message-heavy *)
  | Leader_priority of int
      (** stellar-style: nodes follow a deterministic priority order
          over their slice domain; only the current leaders' values are
          nominated/echoed, and a new leader is admitted every given
          timeout until a candidate emerges — drastically fewer
          nomination votes *)

type config = {
  self : Pid.t;
  my_slices : Fbqs.Slice.t;
      (** this node's declared slice set, attached to every envelope it
          sends; the slices of other nodes are learned from the
          envelopes they (or relayers) deliver *)
  initial_peers : Pid.Set.t;
      (** processes this node can contact initially (its slice domain /
          PD set); grows as unknown peers make contact *)
  initial_value : Value.t;
  nomination : nomination_strategy;
  on_decide : Pid.t -> decision -> unit;  (** fired exactly once *)
}

val priority : Pid.t -> int
(** The deterministic nomination priority of a node (a hash; higher
    wins). Shared by all nodes, so nodes with equal domains compute
    equal leader sets. *)

val behavior :
  ?metrics:Obs.Metrics.t ->
  ?trace:Obs.Trace.sink ->
  config ->
  Msg.t Simkit.Engine.behavior
(** [metrics] registers and bumps the [scp_*] counters (votes, accepts,
    confirms, ballots entered, nomination rounds, decisions, plus the
    federated-voting quorum/v-blocking check counters); [trace] emits
    scope-["scp"] events ([vote], [accept], [confirm], [enter_ballot],
    [nomination_round], [decide]) stamped with the engine's logical
    time. *)

(** Byzantine SCP behaviours used by the experiments. *)

val silent : Msg.t Simkit.Engine.behavior

val accept_forger :
  self:Pid.t ->
  slices:Fbqs.Slice.t ->
  peers:Pid.Set.t ->
  Statement.t list ->
  Msg.t Simkit.Engine.behavior
(** Broadcasts unjustified [Accept] envelopes for the given statements
    at start-up and relays nothing else: correct nodes must ignore them
    unless a v-blocking set corroborates. *)

val nomination_equivocator :
  self:Pid.t ->
  slices:Fbqs.Slice.t ->
  split:(Pid.t -> bool) ->
  value_a:Value.t ->
  value_b:Value.t ->
  peers:Pid.Set.t ->
  Msg.t Simkit.Engine.behavior
(** Votes to nominate [value_a] towards peers satisfying [split] and
    [value_b] towards the rest, then stays quiet — a classic
    equivocation attempt on nomination. *)

val slice_equivocator :
  self:Pid.t ->
  slices_a:Fbqs.Slice.t ->
  slices_b:Fbqs.Slice.t ->
  split:(Pid.t -> bool) ->
  value:Value.t ->
  peers:Pid.Set.t ->
  Msg.t Simkit.Engine.behavior
(** Declares different slice sets to different peers while nominating
    [value]: receivers pin the first declaration they see, so the
    equivocation splits their views of this node's trust choices. *)
