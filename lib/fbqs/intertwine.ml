open Graphkit

type mode = Correct_witness of Pid.Set.t | Threshold of int

let threshold_pair_ok ~f q q' = Pid.Set.cardinal (Pid.Set.inter q q') > f

let mode_ok mode q q' =
  match mode with
  | Correct_witness w ->
      not (Pid.Set.is_empty (Pid.Set.inter w (Pid.Set.inter q q')))
  | Threshold f -> threshold_pair_ok ~f q q'

let pair_intertwined sys mode i j =
  let qi = Quorum.minimal_quorums_of sys i in
  let qj = Quorum.minimal_quorums_of sys j in
  List.for_all (fun q -> List.for_all (fun q' -> mode_ok mode q q') qj) qi

let member_quorums sys set =
  List.map
    (fun i -> (i, Quorum.minimal_quorums_of sys i))
    (Pid.Set.elements set)

let violation mode quorums =
  let rec scan = function
    | [] -> None
    | (i, qis) :: rest ->
        let bad_against (j, qjs) =
          List.find_map
            (fun q ->
              List.find_map
                (fun q' ->
                  if mode_ok mode q q' then None else Some (i, q, j, q'))
                qjs)
            qis
        in
        (* Include the reflexive pair: two distinct quorums of the same
           process must also intersect. *)
        (match List.find_map bad_against ((i, qis) :: rest) with
        | Some w -> Some w
        | None -> scan rest)
  in
  scan quorums

let violating_pair sys mode set = violation mode (member_quorums sys set)

let set_intertwined sys mode set =
  Option.is_none (violating_pair sys mode set)
