(** Turnkey SCP executions over a slice system.

    Builds an engine, wires one SCP node per participant (honest or
    Byzantine), runs to completion and reports the consensus verdict:
    whether all correct nodes decided, whether they agreed, and whether
    validity held (every decided value is a combination of proposed
    values — values are transaction sets and nomination merges them). *)

open Graphkit

type fault =
  | Silent
  | Accept_forger of Statement.t list
  | Nomination_equivocator of {
      split : Pid.t -> bool;
      value_a : Value.t;
      value_b : Value.t;
    }
  | Slice_equivocator of {
      split : Pid.t -> bool;
      slices_a : Fbqs.Slice.t;
      slices_b : Fbqs.Slice.t;
      value : Value.t;
    }
      (** declares [slices_a] to peers satisfying [split], [slices_b]
          to the rest, while nominating [value] *)

type outcome = {
  decisions : Node.decision Pid.Map.t;  (** per correct node *)
  all_decided : bool;
  agreement : bool;  (** vacuously true when fewer than 2 decided *)
  validity : bool;
  stats : Simkit.Engine.stats;
}

val pp_outcome : Format.formatter -> outcome -> unit

type cfg = {
  run : Simkit.Run_config.t;
      (** timing, seed and observability sinks, shared with the engine *)
  nomination : Node.nomination_strategy;
}

val default_cfg : cfg
(** [run = Run_config.default], [nomination = Echo_all]. *)

val run_cfg :
  ?cfg:cfg ->
  system:Fbqs.Quorum.system ->
  peers_of:(Pid.t -> Pid.Set.t) ->
  initial_value_of:(Pid.t -> Value.t) ->
  fault_of:(Pid.t -> fault option) ->
  unit ->
  outcome
(** Runs one consensus instance. Participants are the processes of
    [system]. [peers_of] gives each node its initial contact list
    (normally its slice domain). The run stops when every correct node
    has decided or at [cfg.run.max_time]. When [cfg.run] carries
    observability sinks, the engine and every honest node are
    instrumented, and scope-["runner"] [run_start]/[run_end] events
    bracket the trace. The registry's [fbqs_cache_hits] and
    [fbqs_cache_misses] count, per quorum check of an honest node,
    whether that node's compiled view of its learned slices was reused
    or compiled ({!Fvoting.create}): they belong to this run alone. *)
