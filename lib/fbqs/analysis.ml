open Graphkit

let blocking_cascade sys ~down =
  let rec go halted =
    let next =
      Pid.Set.filter
        (fun i ->
          (not (Pid.Set.mem i halted)) && Quorum.is_v_blocking sys i halted)
        (Quorum.participants sys)
    in
    if Pid.Set.is_empty next then halted
    else go (Pid.Set.union halted next)
  in
  go down

let subsets_by_size universe =
  let elts = Array.of_list (Pid.Set.elements universe) in
  let n = Array.length elts in
  if n > 20 then invalid_arg "Analysis: more than 20 participants";
  let all =
    List.init (1 lsl n) (fun mask ->
        let s = ref Pid.Set.empty in
        for b = 0 to n - 1 do
          if mask land (1 lsl b) <> 0 then s := Pid.Set.add elts.(b) !s
        done;
        !s)
  in
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
  let participants = Quorum.participants sys in
  let all = subsets_by_size participants in
  let halts_everything down =
    Pid.Set.equal (blocking_cascade sys ~down) participants
  in
  match List.find_opt halts_everything all with
  | Some s -> Pid.Set.cardinal s
  | None -> Pid.Set.cardinal participants + 1

(* Safety level, splitting sets and top tier delegate to [Enum]'s
   branch-and-bound engine. Splitting sets sweep the full participant
   set (not just the top tier) so the semantics match the seed subset
   sweep (the test oracle in [test/oracle]) exactly; the sweep is still
   exponential in the participant count, but the per-candidate
   intersection check is the scalable one. *)
let safety_level sys =
  let participants = Quorum.participants sys in
  match
    Enum.minimal_splitting_sets ~universe:participants (Enum.prepare sys)
  with
  | [] -> Pid.Set.cardinal participants + 1
  | s :: _ -> Pid.Set.cardinal s

let splitting_sets sys =
  Enum.minimal_splitting_sets
    ~universe:(Quorum.participants sys)
    (Enum.prepare sys)

let top_tier sys = Enum.top_tier (Enum.prepare sys)
