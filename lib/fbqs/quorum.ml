open Graphkit

type system = Slice.t Pid.Map.t

let system_of_list l =
  List.fold_left (fun m (i, s) -> Pid.Map.add i s m) Pid.Map.empty l

let slices_of sys i =
  Option.value ~default:(Slice.Explicit []) (Pid.Map.find_opt i sys)

let participants = Pid.Map.keys

(* ---- compiled systems over the dense bitset kernel ------------------

   Algorithm 1 evaluates one predicate per member of the candidate set,
   and on the Algorithm 2 threshold systems every such predicate is the
   same [|Q ∩ members| >= threshold] count. A system is compiled once
   into pid-indexed arrays of dense bitsets: the per-member test becomes
   an array load plus (for threshold slices) one popcount shared across
   every member with a structurally equal member set ("class").

   Compilation is explicit ({!Compiled.compile}): a caller compiles
   once and passes the handle down its own loops. Nothing here keeps
   a handle. *)

module D = Pid.Dense_set

type entry =
  | Absent  (** no declared slices: never satisfies Algorithm 1 *)
  | Explicit_d of { slices : D.family; domain : D.t }
      (** [domain]: the union of the slices. *)
  | Threshold_d of { sat : bool; threshold : int; cls : int }
      (** [sat]: the slice set is non-empty ([threshold <= |members|]);
          [cls] indexes the shared member-set class. *)

type compiled = {
  csys : system;  (** the compiled system *)
  bound : int;  (** pids outside [0, bound) are [Absent] *)
  entries : entry array;
  class_sets : D.t array;  (** distinct threshold member sets *)
}

(* Process ids are non-negative (DESIGN.md §8): a negative owner is
   refused here, a negative slice member by [D.of_set]. *)
let compile sys =
  (match Pid.Map.min_binding_opt sys with
  | Some (i, _) when i < 0 ->
      invalid_arg "Quorum.Compiled.compile: negative process id"
  | _ -> ());
  let bound =
    match Pid.Map.max_binding_opt sys with Some (k, _) -> k + 1 | None -> 0
  in
  let entries = Array.make bound Absent in
  let classes : (D.t, int) Hashtbl.t = Hashtbl.create 7 in
  let class_sets = ref [] in
  let n_classes = ref 0 in
  let class_of d =
    match Hashtbl.find_opt classes d with
    | Some c -> c
    | None ->
        let c = !n_classes in
        incr n_classes;
        Hashtbl.add classes d c;
        class_sets := d :: !class_sets;
        c
  in
  Pid.Map.iter
    (fun i slice ->
      entries.(i) <-
        (match slice with
        | Slice.Explicit [] -> Absent
        | Slice.Explicit slices ->
            let ds = List.map D.of_set slices in
            Explicit_d
              {
                slices = D.family ds;
                domain = List.fold_left D.union D.empty ds;
              }
        | Slice.Threshold { members; threshold } ->
            let sat = threshold <= Pid.Set.cardinal members in
            Threshold_d { sat; threshold; cls = class_of (D.of_set members) }))
    sys;
  {
    csys = sys;
    bound;
    entries;
    class_sets = Array.of_list (List.rev !class_sets);
  }

(* The per-member test of Algorithm 1. [counts] memoizes one
   intersection cardinality per member-set class for the duration of a
   single candidate-set evaluation. *)
let member_ok c counts qd i =
  i < c.bound
  &&
  match c.entries.(i) with
  | Absent -> false
  | Explicit_d { slices; _ } -> D.exists_subset slices qd
  | Threshold_d { sat; threshold; cls } ->
      sat
      && threshold
         <=
         (let cnt = counts.(cls) in
          if cnt >= 0 then cnt
          else begin
            let cnt = D.inter_cardinal c.class_sets.(cls) qd in
            counts.(cls) <- cnt;
            cnt
          end)

module Compiled = struct
  type t = compiled

  let compile = compile
  let system c = c.csys

  let is_quorum_d c qd =
    (not (D.is_empty qd))
    &&
    let counts = Array.make (Array.length c.class_sets) (-1) in
    D.for_all (member_ok c counts qd) qd

  let is_quorum c q = is_quorum_d c (D.of_set q)

  (* Discard members with no slice inside the current candidate until
     a fixpoint. Since the union of two quorums is a quorum, the
     fixpoint is the union of all quorums within [set]. Rounds only
     shrink the candidate, so once one drops a member of [keep], the
     fixpoint cannot hold [keep] and the remaining rounds are skipped. *)
  let greatest_quorum_keeping_d c ~keep set =
    let rec go qd =
      let counts = Array.make (Array.length c.class_sets) (-1) in
      let next = D.filter (member_ok c counts qd) qd in
      if not (D.subset keep next) then None
      else if D.equal next qd then Some qd
      else go next
    in
    go set

  let greatest_quorum_within_d c set =
    Option.get (greatest_quorum_keeping_d c ~keep:D.empty set)

  let greatest_quorum_within c set =
    D.to_set (greatest_quorum_within_d c (D.of_set set))

  let domain_d c i =
    if i >= c.bound then D.empty
    else
      match c.entries.(i) with
      | Absent -> D.empty
      | Explicit_d { domain; _ } -> domain
      | Threshold_d { sat; cls; _ } ->
          if sat then c.class_sets.(cls) else D.empty

  (* A slice of [i] avoids [b] iff it lies within [i]'s domain minus
     [b], so [b] blocks [i] iff [i] declares a slice and has none
     within [domain_d c i \ b]. For a threshold class that count is
     [|members \ b|], taken without building the difference. *)
  let is_v_blocking_d c i b =
    i < c.bound
    &&
    match c.entries.(i) with
    | Absent -> false
    | Explicit_d { slices; domain } ->
        not (D.exists_subset slices (D.diff domain b))
    | Threshold_d { sat; threshold; cls } ->
        let members = c.class_sets.(cls) in
        sat && D.cardinal members - D.inter_cardinal members b < threshold
end

let cache_stats () =
  { Core.Cache.hits = 0; misses = 0; evictions = 0; length = 0; capacity = 0 }

(* Mazières' delete operation: remove the nodes of [b] from the system
   and from every remaining slice. Lives here (rather than in {!Dset})
   so that the {!Enum} analyzer can delete without depending on the
   DSet layer it accelerates. *)
let delete sys b =
  Pid.Map.filter_map
    (fun i slices ->
      if Pid.Set.mem i b then None
      else
        Some
          (match slices with
          | Slice.Explicit l ->
              Slice.Explicit (List.map (fun s -> Pid.Set.diff s b) l)
          | Slice.Threshold { members; threshold } ->
              (* Deleting [b] from "all t-subsets of members" yields the
                 set {s \ b}, whose weakest elements are the
                 (t - |members ∩ b|)-subsets of the survivors; both
                 has_slice_within and all_slices_intersect depend only
                 on those, so the result is exactly a threshold slice
                 over the survivors with the reduced threshold. *)
              let hit = Pid.Set.cardinal (Pid.Set.inter members b) in
              Slice.Threshold
                {
                  members = Pid.Set.diff members b;
                  threshold = max 0 (threshold - hit);
                }))
    sys

let enum_quorums sys =
  let c = Compiled.compile sys in
  Pid.Set.fold_subsets
    (fun s acc -> if Compiled.is_quorum c s then s :: acc else acc)
    (participants sys) []

let keep_minimal quorums =
  List.filter
    (fun q ->
      not
        (List.exists
           (fun q' -> (not (Pid.Set.equal q q')) && Pid.Set.subset q' q)
           quorums))
    quorums

let minimal_quorums sys = keep_minimal (enum_quorums sys)

let minimal_quorums_of sys i =
  keep_minimal (List.filter (Pid.Set.mem i) (enum_quorums sys))
