(** Reachable-reliable broadcast (Section VI), Dolev-style.

    Messages are flooded along knowledge edges carrying the relay path.
    Honest relayers append themselves before forwarding and receivers
    reject copies whose last path element is not the physical sender, so
    every received path provably contains its fabricator if it was
    tampered with. A receiver delivers once it holds [f + 1] pairwise
    internally-node-disjoint paths from the origin (or a direct copy
    from the origin itself): at most [f] disjoint paths can contain a
    faulty process, so at least one path is all-correct and the message
    is authentic.

    This satisfies RB_Validity / RB_Integrity / RB_Agreement on
    knowledge graphs where the destinations are f-reachable from the
    origin (Definition 9) — in k-OSR graphs, all sink members are
    f-reachable from every process.

    The exact search for disjoint paths runs once per fresh path of an
    undelivered origin, over the stored paths disjoint from it: the
    stored paths alone held no [f + 1] disjoint ones, so only sets
    containing the fresh path can complete the rule. A repeated path
    changes nothing the rule reads and costs one scan; once an origin
    is delivered and its relay cap reached, its copies cost one table
    lookup. *)

open Graphkit

type t

val create :
  self:Pid.t ->
  neighbors:Pid.Set.t ->
  f:int ->
  ?metrics:Obs.Metrics.t ->
  unit ->
  t
(** A relayer forwards at most [4 * (f + 1)] distinct copies of the
    same origin's flood: a fixed cap that bounds Dolev flooding's
    worst-case exponential traffic while leaving enough path diversity
    for delivery in practice. [metrics] counts flood fan-out
    ([rbcast_broadcasts], [rbcast_relays], [rbcast_deliveries]). *)

val broadcast : t -> send:(Pid.t -> Msg.t -> unit) -> unit
(** Starts a GET_SINK flood with this process as origin. *)

val on_get_sink :
  t ->
  send:(Pid.t -> Msg.t -> unit) ->
  src:Pid.t ->
  origin:Pid.t ->
  path:Pid.t list ->
  Pid.t option
(** Processes a flood copy: validates the path, relays it if it is
    fresh, and returns [Some origin] exactly once per origin — upon
    first satisfying the delivery rule (the reachable_deliver event). *)
