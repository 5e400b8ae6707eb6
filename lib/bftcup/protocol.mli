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
  ?seed:int ->
  ?gst:int ->
  ?delta:int ->
  ?max_time:int ->
  ?view_timeout:int ->
  graph:Digraph.t ->
  f:int ->
  initial_value_of:(Pid.t -> Scp.Value.t) ->
  faulty:Pid.Set.t ->
  unit ->
  outcome
(** Runs the full pipeline on a knowledge graph. Faulty processes are
    silent in both stages (the strongest failure for liveness; richer
    Byzantine behaviours are exercised per-stage in the test suites). *)
