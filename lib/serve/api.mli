(** The analysis/run surface shared by the CLI and the analysis daemon.

    Both front ends answer the same questions over the same engines
    ({!Fbqs.Enum}, {!Stellar_cup.Pipeline}); this module holds the
    result assembly exactly once so that identical inputs produce
    byte-identical JSON payloads whichever front end served them. The
    payloads here are envelope-free: the CLI wraps them in a
    {!Core.Report} envelope of kind ["run"]/["sweep"]/["fbas-analysis"],
    the daemon in a ["response"] envelope carrying the request id. See
    DESIGN.md §14. *)

open Graphkit

(** {1 Graph selection} *)

type graph_spec = {
  kind : string;
      (** [fig1], [fig2], [family], [random], or [file:PATH] *)
  seed : int;
  sink_size : int;
  non_sink : int;
  f : int;
}

val default_graph_spec : graph_spec
(** [fig2], seed 1, sink size 5, 4 non-sink members, f = 1: the
    defaults of the CLI's graph flags and of the daemon's [run] verb. *)

val build_graph : graph_spec -> Digraph.t
(** @raise Failure on an unknown kind or an unreadable [file:] path. *)

(** {1 Consensus runs} *)

val default_pipeline : string
(** [scp-sd] (Corollary 2's stack): the default of the CLI's
    [--pipeline] flag and of the daemon's [run] verb. *)

val run_payload :
  pipeline:string ->
  seed:int ->
  extra:(string * Obs.Json.t) list ->
  Stellar_cup.Pipeline.verdict ->
  Obs.Json.t
(** The single-run payload: pipeline, seed, verdict, then [extra]
    (metrics dump, trace-file pointer). *)

val sweep_payload :
  pipeline:string ->
  samples:int ->
  jobs:int ->
  (int * Stellar_cup.Pipeline.verdict) list ->
  Obs.Json.t
(** The multi-seed sweep payload: per-seed verdicts plus the
    [all_consensus] conjunction. *)

(** {1 FBQS analysis} *)

type analysis_options = {
  despite : int list list;
      (** node sets to check quorum intersection despite deleting *)
  blocking : bool;  (** also enumerate minimal blocking sets *)
  splitting : bool;  (** also enumerate minimal splitting sets *)
  max_size : int option;  (** splitting-sweep candidate-size bound *)
  cap : int;  (** sets listed per family in reports (counts stay exact) *)
  metrics : bool;  (** collect a fresh per-analysis metrics registry *)
  jobs : int;
      (** parallel workers for the Enum searches — wall-clock only,
          the payload is byte-identical at every jobs count and never
          mentions it *)
}

val default_analysis_options : analysis_options
(** No extras, cap 64, no metrics, jobs 1: the defaults of the CLI's
    [fbas analyze] flags and of the daemon's [analyze] verb (whose
    [jobs] default is the daemon's own). *)

type analysis = {
  participants : Pid.Set.t;
  minimal_quorums : Pid.Set.t list;
  top_tier : Pid.Set.t;
  intersection : Fbqs.Enum.intersection;
  blocking_sets : Fbqs.Enum.blocking option;
  splitting_sets : Pid.Set.t list option;
  despite_checks : (Pid.Set.t * bool) list;
  search : Fbqs.Enum.stats;
  registry : Obs.Metrics.t option;  (** present iff [metrics] was set *)
}

val analyze : analysis_options -> Fbqs.Quorum.system -> analysis
(** Runs the {!Fbqs.Enum} analyzer on a fresh [Enum.t], which compiles
    the system for itself: nothing of the analysis outlives the call,
    and no process-wide cache is consulted. *)

val analysis_payload : analysis_options -> analysis -> Obs.Json.t
(** The [fbas analyze --json] payload object (byte-identical to the
    pre-envelope CLI output). *)
