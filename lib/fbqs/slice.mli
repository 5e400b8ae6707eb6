(** Quorum slices (Stellar model, Section III-D).

    A slice of a process [i] is a set of processes that [i] trusts; the
    slice set [S_i] collects all of them. The paper's slice
    constructions ("all subsets of [V] with size [m]", Algorithm 2) are
    combinatorially large, so besides explicit slice lists this module
    offers a {e symbolic threshold} representation for which the
    quorum-membership and v-blocking tests reduce to counting. The two
    representations are proved interchangeable by the property tests in
    [test/test_fbqs.ml]. *)

open Graphkit

type t = private
  | Explicit of Pid.Set.t list
      (** A literal list of slices. The empty list means "no slice",
          i.e. this process can never be part of a quorum. *)
  | Threshold of { members : Pid.Set.t; threshold : int }
      (** All subsets of [members] of size exactly [threshold]: the form
          produced by Algorithm 2. A threshold larger than
          [|members|] denotes an empty slice set. *)

val explicit : Pid.Set.t list -> t

val threshold : members:Pid.Set.t -> threshold:int -> t
(** A threshold of 0 denotes the one empty slice.
    @raise Invalid_argument on a negative [threshold]. *)

val pp : Format.formatter -> t -> unit

val equal : t -> t -> bool

val domain : t -> Pid.Set.t
(** The union of all slices ([Pi_i] in the paper, the processes the
    owner can initially contact). *)

val slice_count : t -> int
(** Number of distinct slices ([C(|members|, threshold)] for the
    symbolic form). Saturates at [max_int]. *)

val enumerate : t -> Pid.Set.t list
(** All slices, explicitly. Intended for small systems (tests and the
    paper's figures); raises [Invalid_argument] when the symbolic form
    would expand to more than [100_000] slices. *)

val has_slice_within : t -> Pid.Set.t -> bool
(** [has_slice_within s q] holds iff some slice is contained in [q] —
    the per-member condition of Algorithm 1. O(slices) for the explicit
    form, O(|q|) counting for the symbolic form. *)

val all_slices_intersect : t -> Pid.Set.t -> bool
(** [all_slices_intersect s b] holds iff every slice meets [b] — the
    v-blocking condition used by SCP's federated voting. For the
    symbolic form this is [|members \ b| < threshold]. Vacuously true
    when the slice set is empty. *)

val has_slice_avoiding : t -> Pid.Set.t -> bool
(** [has_slice_avoiding s b] holds iff some slice avoids [b] entirely —
    the Lemma 2 requirement with [b] the faulty set. Equivalent to
    [not (all_slices_intersect s b)]. *)

val map_members : (Pid.t -> Pid.t) -> t -> t
(** Renames processes inside the slice set. *)
