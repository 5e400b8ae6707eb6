(** The end-to-end BFT-CUP baseline (Alchieri et al.), staged:

    1. every process runs the sink discovery of {!Cup.Sink_protocol}
       (knowledge acquisition);
    2. sink members run {!Pbft} among the discovered membership;
    3. non-sink members request the decision from the sink members in
       their discovered view and adopt a value reported by [f + 1]
       distinct sink members.

    The paper contrasts this protocol with Stellar: BFT-CUP solves
    consensus with [PD_i] and [f] alone, whereas SCP additionally needs
    the sink detector (Corollaries 1 and 2). *)

open Graphkit

type outcome = {
  decisions : Scp.Value.t Pid.Map.t;  (** one entry per decided correct node *)
  all_decided : bool;
  agreement : bool;
  validity : bool;
  discovery_stats : Simkit.Engine.stats;
  consensus_stats : Simkit.Engine.stats;
}

val run :
  ?cfg:Simkit.Run_config.t ->
  graph:Digraph.t ->
  f:int ->
  initial_value_of:(Pid.t -> Scp.Value.t) ->
  faulty:Pid.Set.t ->
  unit ->
  outcome
(** Runs the full pipeline on a knowledge graph. Faulty processes are
    silent in both stages (the strongest failure for liveness; richer
    Byzantine behaviours are exercised per-stage in the test suites).

    Stage 1 runs on [cfg] (default {!Simkit.Run_config.default}),
    stages 2 and 3 on [cfg] reseeded with [seed + 1], so the two
    engines draw distinct delay streams; each stage has the whole
    [cfg.max_time] budget. Both engines count into [cfg.metrics] and
    emit into [cfg.trace]; a PBFT view change times out after 60
    ticks. In the trace, scope-["runner"] [run_start]/[run_end] events
    bracket the consensus stage with the fields {!Scp.Runner.run_cfg}
    writes ([run_start] carries the stage's own seed and counts the
    processes in its engine), and each process that decides, replica
    or requester, emits one scope-["bftcup"] [decide] event with its
    [node] and [value] at the logical time it decided. *)
