open Graphkit

(* Mazières' definition: V \ B must be a quorum of the ORIGINAL system
   (or B covers everything) — availability is judged before deletion,
   intersection after. *)
let quorum_availability_despite sys b =
  let survivors = Pid.Set.diff (Quorum.participants sys) b in
  Pid.Set.is_empty survivors
  || Quorum.Compiled.is_quorum (Quorum.compiled_of sys) survivors

(* Intersection runs on [Enum]'s branch-and-bound, which has no
   participant guard; the seed Gosper sweep it replaced is the test
   oracle in [test/oracle] (equivalence is property-tested in
   test/test_enum.ml). [b] may name nodes outside the slice map (e.g.
   Byzantine processes that declared nothing): they belong to no
   quorum, so deleting them only prunes them out of others' slices. *)
let is_dset sys b =
  quorum_availability_despite sys b && Enum.quorum_intersection_despite sys b

let all_dsets ?(extra = Pid.Set.empty) sys =
  List.rev
    (Pid.Set.fold_subsets
       (fun b acc -> if is_dset sys b then b :: acc else acc)
       (Pid.Set.union (Quorum.participants sys) extra)
       [])

let minimal_dsets sys =
  let dsets = all_dsets sys in
  List.filter
    (fun d ->
      not
        (List.exists
           (fun d' -> (not (Pid.Set.equal d d')) && Pid.Set.subset d' d)
           dsets))
    dsets

let intact sys ~faulty =
  let dsets = all_dsets ~extra:faulty sys in
  Pid.Set.filter
    (fun v ->
      List.exists
        (fun d -> Pid.Set.subset faulty d && not (Pid.Set.mem v d))
        dsets)
    (Quorum.participants sys)

let befouled sys ~faulty =
  Pid.Set.diff (Quorum.participants sys) (intact sys ~faulty)
