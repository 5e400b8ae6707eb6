(** The paper's artifacts as runnable experiments (DESIGN.md §5).

    The paper is theoretical — its "evaluation" is Figures 1–3,
    Algorithms 1–3 and Theorems 2–6. Each function below regenerates one
    of those artifacts computationally and returns a table whose shape
    is compared against the paper's claim in EXPERIMENTS.md. All
    experiments are deterministic in [seed].

    Sampled experiments additionally take [?jobs] (default [1]): the
    per-sample runs are farmed out through {!Simkit.Exec.map} to that
    many workers. Every sample is a pure function of its seed, so
    the rendered table is byte-identical for every [jobs] value —
    parallelism only buys wall-clock. *)

val e1_fig1_example : unit -> Report.t
(** Fig. 1 / Section III-D: the 8-participant running example — PD
    sets, slices, each process's minimal quorum, the consensus clusters
    [{5,6,7}] and [{1..7}], and the unique maximal cluster. *)

val e2_is_quorum : ?seed:int -> unit -> Report.t
(** Algorithm 1: symbolic-threshold [is_quorum] agrees with explicit
    enumeration (random probes per system size), and scales to sizes
    where enumeration is impossible. *)

val e3_theorem2_violation :
  ?seed:int -> ?samples:int -> ?jobs:int -> unit -> Report.t
(** Theorem 2 / Fig. 2: the counter-example's two disjoint quorums; a
    live SCP execution on them that violates agreement; and the
    violation rate across random k-OSR graphs with locally defined
    slices. *)

val e4_algorithm2_intertwined :
  ?seed:int -> ?samples:int -> ?jobs:int -> unit -> Report.t
(** Theorem 3: with Algorithm 2 slices every pair of correct processes
    is intertwined, on the paper's graphs and across random families. *)

val e4b_threshold_ablation : unit -> Report.t
(** Ablation: sweep the sink slice threshold around the paper's
    [ceil((s+f+1)/2)] — smaller breaks intersection, larger erodes the
    availability margin; the paper's choice is the minimum safe one. *)

val e5_availability : ?seed:int -> ?samples:int -> ?jobs:int -> unit -> Report.t
(** Theorems 4–5: every correct process keeps an all-correct quorum and
    the correct processes form one consensus cluster, under adversarial
    fault placement (sink-heavy and spread). *)

val e6_sink_detector : ?seed:int -> ?samples:int -> ?jobs:int -> unit -> Report.t
(** Algorithm 3 / Theorem 6: distributed sink-detector runs — accuracy
    against the pure oracle, message and latency cost as the graph
    grows, each graph fault-free and with [f] silent processes. *)

val e7_reachable_broadcast :
  ?seed:int -> ?samples:int -> ?jobs:int -> unit -> Report.t
(** Section VI's primitive: RB validity and agreement at the sink
    across random Byzantine-safe graphs, with traffic counts. *)

val rb_drive :
  f:int -> Graphkit.Digraph.t -> int * (Graphkit.Pid.t * Graphkit.Pid.t) list
(** E7's drive: every process of the graph, in ascending order, starts
    a GET_SINK flood that a synchronous in-memory queue carries to
    quiescence. Returns the messages sent and every (receiver, origin)
    delivery. *)

val e8_pipelines : ?seed:int -> ?samples:int -> ?jobs:int -> unit -> Report.t
(** Corollary 1 vs Corollary 2 vs the BFT-CUP baseline, end to end:
    per-pipeline verdicts, message and latency costs across graph
    sizes. *)

val e9_graph_machinery : ?seed:int -> unit -> Report.t
(** Definitions 6, 7 and 9: generator soundness against the exact
    k-OSR checker, sink connectivity, and disjoint-path statistics. *)

val registry : (string * (jobs:int -> Report.t)) list
(** Every experiment by id, in order, at the seed and sample count of
    EXPERIMENTS.md's generated tables: the functions above, plus
    - [e10], an ablation: the weakest oracle Definition 8 permits
      (non-sink members learn only [f+1] correct sink ids, possibly
      diluted with [f] faulty ones) — Theorems 3–5 must still hold;
    - [e11]: latency of the Corollary-2 stack as the asynchronous
      period (GST) grows — safety is unaffected, termination time
      tracks GST;
    - [e12], an ablation of SCP's nomination strategy: naive
      echo-everything vs stellar-core-style leader priorities — same
      verdicts, far fewer messages with leaders. *)

val all : ?jobs:int -> unit -> Report.t list
(** Every table of {!registry}, in order: EXPERIMENTS.md's generated
    section. *)
