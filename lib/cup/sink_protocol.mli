(** Algorithm 3 — the distributed sink detector — run on the
    simulator.

    Every process starts a GET_SINK reachable broadcast and runs the
    SINK primitive concurrently (the paper's two [fork]s). Sink members
    terminate SINK directly and answer the GET_SINK requests they
    delivered; non-sink members adopt the first sink value reported by
    more than [f] distinct processes. *)

open Graphkit

type fault =
  | Silent
      (** crashes from the start: contributes nothing anywhere *)
  | Sink_liar of Pid.Set.t
      (** participates honestly in knowledge dissemination and flood
          relaying, but eagerly answers every GET_SINK origin it sees
          with the given fake sink value *)
  | Know_liar of Pid.Set.t
      (** honest except that its [Know] messages additionally claim the
          given fabricated ids (the same lie to everybody) *)

val resolve_replies : f:int -> Pid.Set.t Pid.Map.t -> Pid.Set.t option
(** The pure wait_sink decision: given the latest claimed sink per
    responder, the candidate view echoed by more than [f] distinct
    responders, or [None]. Ties — several candidates over threshold —
    resolve to the smallest view by [Pid.Set.compare], so the result is
    a function of the reply map alone, never of enumeration order. *)

type run_result = {
  answers : Sink_oracle.answer Pid.Map.t;
      (** one entry per correct process that completed get_sink *)
  stats : Simkit.Engine.stats;
}

val run_cfg :
  ?cfg:Simkit.Run_config.t ->
  graph:Digraph.t ->
  f:int ->
  fault_of:(Pid.t -> fault option) ->
  unit ->
  run_result
(** Simulates Algorithm 3 on the whole knowledge graph until every
    correct process has returned from [get_sink] or [cfg.max_time]
    elapses. [fault_of] designates the faulty processes and their
    behaviour. Observability sinks in [cfg] instrument the engine and
    every honest node: [cfg.metrics] counts discovery traffic
    ([cup_know_received], [cup_sink_replies], [cup_sinks_resolved],
    plus the [rbcast_*] flood counters), and [cfg.trace] receives
    scope-["cup"] events ([rb_deliver], [sink_resolved]) stamped with
    the engine's logical time. *)

val default_run_config : Simkit.Run_config.t
(** The detector's historical timing: {!Simkit.Run_config.default}
    with [delta = 10] and [max_time = 100_000]. The detector settles
    well before the generic 200k budget, so its callers have always
    run on this shorter, coarser clock, and keep it for byte-stable
    traces. *)
