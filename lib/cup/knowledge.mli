(** The knowledge-dissemination core of the SINK primitive
    (Alchieri et al., reconstructed; see DESIGN.md for the fidelity
    notes).

    Each process maintains a [known] set seeded with [{i} ∪ PD_i] and
    grown by exchanging [Know] messages with the processes it knows.
    Fabricated ids are filtered by an [f + 1]-voucher rule: an id that
    is not first-hand knowledge is accepted only once [f + 1] distinct
    known processes have claimed it, so at least one claimant is
    correct and the id is real.

    SINK termination (step 3 of the primitive): a process declares
    itself a sink member once at least [|known| - f] members of [known]
    (itself included) report a known set equal to its own. Correct sink
    members eventually converge on [V_sink] and pass the test; the test
    is unsatisfiable for correct non-sink members because their known
    set strictly contains the ≥ 2f+1 correct sink members' sets.

    Both tests are kept as counts updated per [Know]: vouchers per
    unknown id, from the ids entering and leaving the sender's stored
    view, and the claimants whose view equals [known], recounted only
    when [known] grows. A [Know] that leaves the stored view in place
    (stale or repeated) changes neither count. *)

open Graphkit

type t

val create : self:Pid.t -> pd:Pid.Set.t -> f:int -> t

val known : t -> Pid.Set.t

val sink_result : t -> Pid.Set.t option
(** [Some v] once the SINK termination test has passed; the process is
    a sink member and [v] is its converged view of [V_sink]. *)

val start : t -> send:(Pid.t -> Msg.t -> unit) -> unit
(** Sends the initial subscription round. *)

val on_know_request :
  t -> send:(Pid.t -> Msg.t -> unit) -> src:Pid.t -> unit

val on_know :
  t -> send:(Pid.t -> Msg.t -> unit) -> src:Pid.t -> Pid.Set.t -> unit
