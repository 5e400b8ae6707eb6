(** Random knowledge-connectivity graph generators.

    Every generator is deterministic in its [seed], so experiments and
    failing property-test cases replay exactly. *)

val circulant : n:int -> k:int -> Digraph.t
(** The circulant digraph on vertices [0 .. n-1] where [i] has edges to
    [i+1, ..., i+k (mod n)]. For [1 <= k < n] it is exactly k-strongly
    connected, which makes it the canonical k-connected sink. *)

val complete : n:int -> Digraph.t
(** Complete digraph on [0 .. n-1]. *)

val random_k_osr :
  seed:int ->
  sink_size:int ->
  non_sink:int ->
  k:int ->
  unit ->
  Digraph.t
(** [random_k_osr ~seed ~sink_size ~non_sink ~k ()] draws a graph that
    is k-OSR by construction: the sink is a circulant k-connected
    component on vertices [0 .. sink_size-1] densified with random
    chords; each of the [non_sink] remaining vertices points at [k]
    distinct uniformly chosen sink members (guaranteeing the k
    node-disjoint path condition through a fan argument) plus random
    extra edges to earlier non-sink vertices with probability 0.3 (sink
    chords with probability 0.15).

    @raise Invalid_argument if [sink_size <= k], [k < 1] or
    [non_sink < 0], before drawing anything. *)

val random_byzantine_safe :
  seed:int ->
  f:int ->
  sink_size:int ->
  non_sink:int ->
  unit ->
  Digraph.t * Pid.Set.t
(** A graph suitable for Theorem 1 with fault threshold [f]: generated
    with [k = 2f + 1] so that removing any [f] vertices leaves an
    (f+1)-OSR graph, paired with its sink vertex set. Requires
    [sink_size >= 3f + 2]. *)

val random_faulty_set :
  seed:int -> f:int -> ?within:Pid.Set.t -> Digraph.t -> Pid.Set.t
(** Picks a uniformly random faulty set of exactly [min f n] vertices,
    optionally restricted to [within]. *)

val fig2_family : sink_size:int -> non_sink:int -> Digraph.t
(** The Theorem-2 counter-example topology, generalized: a complete
    digraph sink on [0 .. sink_size-1] plus a complete digraph clique of
    [non_sink] outer members, the [i]-th of which additionally knows
    sink member [i mod sink_size]. With the local all-but-one slice
    rule, the outer clique and the sink form two disjoint quorums, so
    quorum intersection fails — for any [sink_size >= 2] and
    [non_sink >= 2]. The graph is k-OSR for
    [k = min (sink_size - 1) non_sink]. [Builtin.fig2] is
    [fig2_family ~sink_size:4 ~non_sink:3] up to vertex renaming.

    @raise Invalid_argument when [sink_size < 1] (the outer members
    would have no sink member to know) or [non_sink < 0]. *)

val layered_k_osr :
  seed:int ->
  sink_size:int ->
  layers:int ->
  layer_width:int ->
  k:int ->
  unit ->
  Digraph.t
(** A "deep" k-OSR graph: non-sink vertices are arranged in [layers]
    layers of [layer_width] vertices; each vertex points at [k] distinct
    vertices of the next layer towards the sink (the innermost layer
    points at sink members). Generated instances are validated with
    {!Properties.check_k_osr} and regenerated with a bumped seed until
    the check passes, so the result is always genuinely k-OSR. Requires
    [layer_width >= k] and [sink_size > k]. *)
