open Graphkit

let quorum_available sys set =
  (not (Pid.Set.is_empty set))
  && Pid.Set.equal
       (Quorum.Compiled.greatest_quorum_within (Quorum.compiled_of sys) set)
       set

let is_consensus_cluster sys ~correct ~mode set =
  (not (Pid.Set.is_empty set))
  && Pid.Set.subset set correct
  && quorum_available sys set
  && Intertwine.set_intertwined sys mode set

let maximal_clusters sys ~correct ~mode () =
  let clusters =
    Pid.Set.fold_subsets
      (fun s acc ->
        if is_consensus_cluster sys ~correct ~mode s then s :: acc
        else acc)
      correct []
  in
  List.filter
    (fun c ->
      not
        (List.exists
           (fun c' -> (not (Pid.Set.equal c c')) && Pid.Set.subset c c')
           clusters))
    clusters

let grand_cluster sys ~correct ~mode () =
  is_consensus_cluster sys ~correct ~mode correct
