(** The unified run configuration.

    One record carries everything that shapes an execution — the seed,
    the partial-synchrony parameters, the time budget, an optional
    explicit delay model, and the observability sinks — and is accepted
    by {!Engine.create_cfg}, [Scp.Runner.run_cfg],
    [Cup.Sink_protocol.run_cfg], [Bftcup.Protocol.run] and the
    [Stellar_cup.Pipeline] entry points, replacing their formerly
    divergent optional-argument lists.
    CLI subcommands build a single value of this type and pass it down
    the whole stack. *)

type t = {
  seed : int;  (** drives the delay model's randomness *)
  gst : int;  (** global stabilization time *)
  delta : int;  (** post-GST delay bound *)
  max_time : int;  (** logical-time budget for the run *)
  delay : Delay.t option;
      (** explicit delay model; overrides [seed]/[gst]/[delta] (used to
          plug in {!Delay.targeted} adversaries) *)
  metrics : Obs.Metrics.t option;  (** counter/gauge/histogram sink *)
  trace : Obs.Trace.sink option;  (** structured trace-event sink *)
}

val default : t
(** [seed = 0], [gst = 50], [delta = 5], [max_time = 200_000], no
    explicit delay model, no observability sinks. *)

val with_seed : int -> t -> t
(** Convenience for seed sweeps: [{ cfg with seed }]. *)

val delay_model : t -> Delay.t
(** The explicit [delay] when given, otherwise
    [Delay.partial_synchrony ~gst ~delta ~seed]. Builds a fresh model
    (fresh RNG state) on every call. *)
