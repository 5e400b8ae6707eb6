open Graphkit

(* The public predicates compile per call; [maximal_clusters] compiles
   once, and enumerates each member's minimal quorums once, for every
   subset it asks about. [quorums set] lists the members of [set] with
   their minimal quorums. *)
let available c set =
  (not (Pid.Set.is_empty set))
  && Pid.Set.equal (Quorum.Compiled.greatest_quorum_within c set) set

let quorum_available sys set = available (Quorum.Compiled.compile sys) set

let cluster c ~correct ~mode ~quorums set =
  (not (Pid.Set.is_empty set))
  && Pid.Set.subset set correct
  && available c set
  && Option.is_none (Intertwine.violation mode (quorums set))

let is_consensus_cluster sys ~correct ~mode set =
  cluster (Quorum.Compiled.compile sys) ~correct ~mode
    ~quorums:(Intertwine.member_quorums sys)
    set

let maximal_clusters sys ~correct ~mode () =
  let c = Quorum.Compiled.compile sys in
  let table = Intertwine.member_quorums sys correct in
  let quorums set = List.filter (fun (i, _) -> Pid.Set.mem i set) table in
  let clusters =
    Pid.Set.fold_subsets
      (fun s acc ->
        if cluster c ~correct ~mode ~quorums s then s :: acc else acc)
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
