(** End-to-end consensus stacks on a knowledge graph.

    The paper's comparison, as runnable pipelines:

    - {!scp_with_local_slices}: the Section IV strawman — SCP over
      slices each process derives from [PD_i] and [f] alone
      ({!Cup.Local_slices.all_but_one}). Subject to Theorem 2's
      agreement violations.
    - {!scp_with_sink_detector}: Corollary 2's stack — run the sink
      detector (Algorithm 3), build slices with Algorithm 2, then run
      SCP. Solves consensus whenever the graph is Byzantine-safe with a
      2f+1-correct sink.
    - {!bftcup}: the baseline — sink discovery, PBFT among the sink,
      dissemination. Solves consensus from [PD_i] and [f] alone.

    All three report the same outcome shape so experiments can tabulate
    them side by side, and all three take one {!Simkit.Run_config.t}
    carrying the seed, timing model and observability sinks. Multi-stage
    stacks reuse the same config for every stage (the second stage of
    {!scp_with_sink_detector} and {!bftcup} reseeds with [seed + 1] so
    the two stages draw distinct delay streams). *)

open Graphkit

type verdict = {
  all_decided : bool;
  agreement : bool;
  validity : bool;
  deciders : int;
  discovery_msgs : int;  (** 0 for stacks without a discovery stage *)
  consensus_msgs : int;
  total_time : int;  (** simulated ticks across stages *)
}

val pp_verdict : Format.formatter -> verdict -> unit

val scp_with_local_slices :
  ?cfg:Simkit.Run_config.t ->
  graph:Digraph.t ->
  f:int ->
  faulty:Pid.Set.t ->
  initial_value_of:(Pid.t -> Scp.Value.t) ->
  unit ->
  verdict

val scp_with_sink_detector :
  ?cfg:Simkit.Run_config.t ->
  ?nonsink_threshold:int ->
  graph:Digraph.t ->
  f:int ->
  faulty:Pid.Set.t ->
  initial_value_of:(Pid.t -> Scp.Value.t) ->
  unit ->
  verdict
(** [nonsink_threshold] overrides the non-sink slice size of Algorithm 2
    (default [f + 1]) for the ablation study. *)

val bftcup :
  ?cfg:Simkit.Run_config.t ->
  graph:Digraph.t ->
  f:int ->
  faulty:Pid.Set.t ->
  initial_value_of:(Pid.t -> Scp.Value.t) ->
  unit ->
  verdict

(** A pipeline selector, for callers that pick the stack at run time
    (CLI, daemon, bench harness). *)
type stack = Scp_local | Scp_sink_detector | Bftcup

val stack_of_string : string -> stack
(** ["scp-local"], ["scp-sd"] or ["bftcup"]: the names of the CLI's
    [--pipeline] flag and of the daemon's ["pipeline"] field.
    @raise Failure ["unknown pipeline ..."] otherwise. *)

val run_stack :
  stack ->
  cfg:Simkit.Run_config.t ->
  graph:Digraph.t ->
  f:int ->
  faulty:Pid.Set.t ->
  initial_value_of:(Pid.t -> Scp.Value.t) ->
  verdict
(** One run of the selected stack: {!scp_with_local_slices},
    {!scp_with_sink_detector} or {!bftcup}. *)

val sweep :
  ?jobs:int ->
  ?cfg:Simkit.Run_config.t ->
  stack:stack ->
  graph:Digraph.t ->
  f:int ->
  faulty:Pid.Set.t ->
  initial_value_of:(Pid.t -> Scp.Value.t) ->
  int list ->
  (int * verdict) list
(** [sweep ~jobs ~stack ... seeds] runs one independent consensus
    instance per seed through {!Simkit.Exec.map} and returns
    [(seed, verdict)] pairs in input order — byte-identical to the
    sequential run for every [jobs]. The config's [metrics]/[trace]
    sinks are stripped (parallel workers must not share them; see
    DESIGN.md §10); use the single-run entry points to observe one
    run. *)
