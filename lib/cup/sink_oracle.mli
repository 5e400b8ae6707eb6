(** The sink detector as a pure oracle (Definition 8).

    [get_sink] must return [(true, V_sink)] to sink members and
    [(false, V)] with [V ⊆ V_sink] containing at least [f + 1] correct
    sink members to non-sink members. This module computes those answers
    directly from the global knowledge graph; the distributed
    implementation (Algorithm 3) lives in {!Sink_protocol} and is
    checked against this oracle in the test suite.

    Sink detection runs on the compiled CSR graph kernel
    ({!Graphkit.Csr}). {!get_sink} condenses its graph on every call;
    {!shared} and {!get_sink_restricted} condense it once, at partial
    application, and answer every process from that one sink. *)

open Graphkit

type answer = { in_sink : bool; view : Pid.Set.t }

val get_sink : Digraph.t -> Pid.t -> answer
(** The canonical oracle: returns the full [V_sink] to every process.
    @raise Invalid_argument when the graph has no unique sink
    component (the k-OSR precondition fails). *)

val shared : Digraph.t -> Pid.t -> answer
(** [shared g] is observationally {!get_sink}[ g], but condenses the
    graph once at partial application and hands every caller the same
    physical [view] set — so downstream consumers (Algorithm 2, the
    quorum compiler) can share per-view work across all processes.
    @raise Invalid_argument like {!get_sink}, at partial application. *)

val get_sink_restricted :
  seed:int -> f:int -> correct:Pid.Set.t -> Digraph.t -> Pid.t -> answer
(** A worst-case-legal oracle used for ablations: sink members still get
    the full [V_sink], but a non-sink member receives only a minimal
    view of [f + 1] correct sink members plus up to [f] faulty ones —
    the weakest answer Definition 8 permits. Deterministic in [seed] and
    the queried process. Condenses the graph once, at partial
    application.
    @raise Invalid_argument like {!get_sink}, at partial application. *)
