open Graphkit

(* Each round halts every participant that the halted set blocks, one
   compiled v-blocking test per running participant. *)
let blocking_cascade c ~down =
  let parts = Quorum.participants (Quorum.Compiled.system c) in
  let rec go halted =
    let hd = Pid.Dense_set.of_set halted in
    let next =
      Pid.Set.filter
        (fun i ->
          (not (Pid.Set.mem i halted))
          && Quorum.Compiled.is_v_blocking_d c i hd)
        parts
    in
    if Pid.Set.is_empty next then halted
    else go (Pid.Set.union halted next)
  in
  go down

let subsets_by_size universe =
  let all = List.rev (Pid.Set.fold_subsets List.cons universe []) in
  List.sort
    (fun a b -> Int.compare (Pid.Set.cardinal a) (Pid.Set.cardinal b))
    all

let min_blocking_sets sys i =
  match Quorum.slices_of sys i with
  | Slice.Explicit [] -> []
  | slices ->
      let domain = Slice.domain slices in
      if Pid.Set.is_empty domain then []
      else
        let blocking =
          List.filter
            (fun b -> Slice.all_slices_intersect slices b)
            (subsets_by_size domain)
        in
        let blocking = List.filter (fun b -> not (Pid.Set.is_empty b)) blocking in
        List.filter
          (fun b ->
            not
              (List.exists
                 (fun b' ->
                   (not (Pid.Set.equal b b')) && Pid.Set.subset b' b)
                 blocking))
          blocking

let liveness_level sys =
  let c = Quorum.Compiled.compile sys in
  let participants = Quorum.participants sys in
  let all = subsets_by_size participants in
  let halts_everything down =
    Pid.Set.equal (blocking_cascade c ~down) participants
  in
  match List.find_opt halts_everything all with
  | Some s -> Pid.Set.cardinal s
  | None -> Pid.Set.cardinal participants + 1

(* The safety level delegates to [Enum]'s branch-and-bound engine. It
   sweeps the full participant set (not just the top tier) so the
   semantics match the seed subset sweep (the test oracle in
   [test/oracle]) exactly; the sweep is still exponential in the
   participant count, but the per-candidate intersection check is the
   scalable one. *)
let safety_level sys =
  let participants = Quorum.participants sys in
  match
    Enum.minimal_splitting_sets ~universe:participants (Enum.prepare sys)
  with
  | [] -> Pid.Set.cardinal participants + 1
  | s :: _ -> Pid.Set.cardinal s
