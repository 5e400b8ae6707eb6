(** The knowledge-connectivity properties of the CUP model:
    k-One-Sink-Reducibility (Definition 6), the safe Byzantine failure
    pattern (Definition 7) and the Theorem 1 solvability precondition. *)

type osr_failure =
  | Not_connected  (** the undirected closure is disconnected *)
  | Sink_count of int  (** condensation has [n <> 1] sink components *)
  | Sink_not_k_connected of int
      (** the sink component's internal connectivity (reported) is < k *)
  | Non_sink_paths of Pid.t * Pid.t * int
      (** some non-sink vertex reaches some sink vertex through fewer
          than k node-disjoint paths (count reported) *)

val pp_osr_failure : Format.formatter -> osr_failure -> unit

val check_k_osr : Digraph.t -> int -> (Pid.Set.t, osr_failure) result
(** [check_k_osr g k] verifies all four conditions of Definition 6 and
    returns the sink component's vertex set on success. *)

val is_k_osr : Digraph.t -> int -> bool

val is_byzantine_safe : Digraph.t -> f:int -> faulty:Pid.Set.t -> bool
(** Definition 7: removing the faulty set (of size at most [f]) leaves a
    graph in (f+1)-OSR. *)

val solvable : Digraph.t -> f:int -> faulty:Pid.Set.t -> bool
(** Theorem 1 precondition: the graph is Byzantine-safe for the faulty
    set {e and} its sink component contains at least [2f + 1] correct
    processes. *)

val sink_of_exn : Digraph.t -> Pid.Set.t
(** The unique sink component.
    @raise Invalid_argument when the condensation does not have exactly
    one sink. *)
