open Graphkit

(* Mazières' definition: V \ B must be a quorum of the ORIGINAL system
   (or B covers everything) — availability is judged before deletion,
   intersection after. *)
let available_despite c b =
  let survivors =
    Pid.Set.diff (Pid.Dense_set.to_set (Quorum.Compiled.participants_d c)) b
  in
  Pid.Set.is_empty survivors || Quorum.Compiled.is_quorum c survivors

let quorum_availability_despite sys b =
  available_despite (Quorum.Compiled.compile sys) b

(* Intersection runs on [Enum]'s branch-and-bound, which has no
   participant guard; the seed Gosper sweep it replaced is the test
   oracle in [test/oracle] (equivalence is property-tested in
   test/test_enum.ml). [b] may name nodes outside the slice map (e.g.
   Byzantine processes that declared nothing): they belong to no
   quorum, so deleting them only prunes them out of others' slices.
   The deletion runs on the compiled handle ([Quorum.Compiled.delete]),
   so one compile serves every candidate of [all_dsets]. *)
let dset c b = available_despite c b && Enum.intersects_despite c b

let is_dset sys b = dset (Quorum.Compiled.compile sys) b

let all_dsets ?(extra = Pid.Set.empty) sys =
  let c = Quorum.Compiled.compile sys in
  List.rev
    (Pid.Set.fold_subsets
       (fun b acc -> if dset c b then b :: acc else acc)
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
