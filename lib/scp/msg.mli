(** SCP wire messages.

    A node's assertions (votes and acceptances) travel as envelopes
    flooded through the overlay with per-envelope deduplication, the way
    stellar-core floods SCP envelopes. Envelopes name their origin and —
    as Section III-D of the paper prescribes ("each process i attaches
    S_i to all of the messages it sends") — carry the origin's declared
    slice set, which is how receivers learn the quorum structure. The
    simulation treats the origin field as unforgeable, standing in for
    the ed25519 signatures of the real system (see DESIGN.md); the
    slices field however is {e not} protected against equivocation, and
    Byzantine nodes may declare different slices to different peers. *)

open Graphkit

type kind = Vote | Accept

type t = {
  origin : Pid.t;
  kind : kind;
  stmt : Statement.t;
  slices : Fbqs.Slice.t;  (** the origin's declared slice set *)
}

val vote : Pid.t -> slices:Fbqs.Slice.t -> Statement.t -> t

val accept : Pid.t -> slices:Fbqs.Slice.t -> Statement.t -> t

val compare : t -> t -> int
(** A total order on envelopes. Two envelopes differing only in the
    attached slices are distinct (an equivocating declaration is a
    distinct, relayable message). *)

val equal : t -> t -> bool
(** [compare a b = 0]: the identity flood deduplication uses. *)

val hash : t -> int
(** A non-negative hash consistent with {!equal}, for the dedup
    table. It reads the origin, kind and statement, not the slices. *)

val pp : Format.formatter -> t -> unit
