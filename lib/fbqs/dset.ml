open Graphkit

let delete = Quorum.delete

(* Mazières' definition: V \ B must be a quorum of the ORIGINAL system
   (or B covers everything) — availability is judged before deletion,
   intersection after. *)
let quorum_availability_despite sys b =
  let survivors = Pid.Set.diff (Quorum.participants sys) b in
  Pid.Set.is_empty survivors || Quorum.is_quorum sys survivors

(* Delegates to [Enum]'s branch-and-bound, which has no participant
   guard; the seed Gosper sweep it replaced is the test oracle in
   [test/oracle] (equivalence is property-tested in test/test_enum.ml). *)
let quorum_intersection_despite sys b = Enum.quorum_intersection_despite sys b

(* [b] may name nodes outside the slice map (e.g. Byzantine processes
   that declared nothing): they belong to no quorum, so deleting them
   only prunes them out of others' slices. *)
let is_dset sys b =
  quorum_availability_despite sys b && quorum_intersection_despite sys b

let subsets_of set =
  let elts = Array.of_list (Pid.Set.elements set) in
  let n = Array.length elts in
  if n > 20 then invalid_arg "Dset: more than 20 participants";
  List.init (1 lsl n) (fun mask ->
      let s = ref Pid.Set.empty in
      for b = 0 to n - 1 do
        if mask land (1 lsl b) <> 0 then s := Pid.Set.add elts.(b) !s
      done;
      !s)

let all_dsets ?(extra = Pid.Set.empty) sys =
  List.filter (is_dset sys)
    (subsets_of (Pid.Set.union (Quorum.participants sys) extra))

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
