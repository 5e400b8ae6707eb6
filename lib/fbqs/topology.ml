open Graphkit

(* A deterministic linear congruential generator over OCaml's 63-bit
   native int (xorshift* multiplier, Knuth increment). [Random] is
   avoided on purpose: its stream differs between OCaml 4.x and 5.x,
   and the committed fixture must be reproducible bit-for-bit on both —
   the provenance test regenerates it and compares bytes. *)
type rng = { mutable state : int }

let rng seed = { state = (seed * 2862933555777941757) + 3037000493 }

let next r bound =
  r.state <- ((r.state * 2685821657736338717) + 1442695040888963407) land max_int;
  (r.state lsr 17) mod bound

(* [k] distinct values from [0..m-1], ascending. *)
let sample r k m =
  if k >= m then List.init m (fun i -> i)
  else begin
    let rec go acc n =
      if n = 0 then acc
      else
        let v = next r m in
        if List.mem v acc then go acc n else go (v :: acc) (n - 1)
    in
    List.sort Int.compare (go [] k)
  end

let stellarbeat_like ?(orgs = 7) ?(validators_per_org = 3) ?(mid = 63)
    ?(leaves = 126) ?(seed = 1) () =
  if orgs < 3 || validators_per_org < 2 then
    invalid_arg "Topology.stellarbeat_like: need >= 3 orgs of >= 2 validators";
  let r = rng seed in
  let vpo = validators_per_org in
  let top = orgs * vpo in
  let org_members o = List.init vpo (fun k -> (o * vpo) + k) in
  (* Two validators of org [o]; [keep] (when in the org) is always one
     of them — a validator's own org pick always includes itself. *)
  let pick_pair o keep =
    let members = Array.of_list (org_members o) in
    let m = Array.length members in
    match List.mem keep (org_members o) with
    | true ->
        let rec other () =
          let v = members.(next r m) in
          if v = keep then other () else v
        in
        [ keep; other () ]
    | false -> List.map (fun i -> members.(i)) (sample r 2 m)
  in
  let org_slice ~n_orgs ~own v =
    let others =
      match own with
      | Some o ->
          let rec fill acc n =
            if n = 0 then acc
            else
              let cand = next r orgs in
              if cand = o || List.mem cand acc then fill acc n
              else fill (cand :: acc) (n - 1)
          in
          o :: fill [] (n_orgs - 1)
      | None -> sample r n_orgs orgs
    in
    List.concat_map
      (fun o -> pick_pair o (match own with Some o' when o' = o -> v | _ -> -1))
      (List.sort Int.compare others)
    |> Pid.Set.of_list
  in
  let top_node v =
    let o = v / vpo in
    let n_slices = 24 in
    let slices =
      List.init n_slices (fun _ ->
          org_slice ~n_orgs:(min orgs ((2 * orgs / 3) + 1)) ~own:(Some o) v)
    in
    (v, Slice.explicit slices)
  in
  let mid_node m_idx =
    let v = top + m_idx in
    let slices =
      List.init 16 (fun _ ->
          let base = org_slice ~n_orgs:(min orgs ((orgs / 2) + 1)) ~own:None v in
          let peers =
            if mid <= 1 then []
            else
              List.filter_map
                (fun p -> if top + p = v then None else Some (top + p))
                (sample r 3 mid)
          in
          List.fold_left (fun s p -> Pid.Set.add p s) base
            (match peers with a :: b :: _ -> [ a; b ] | l -> l))
    in
    (v, Slice.explicit slices)
  in
  let leaf_node l_idx =
    let v = top + mid + l_idx in
    let slices =
      List.init 12 (fun _ ->
          let base = org_slice ~n_orgs:(min orgs 3) ~own:None v in
          let mids =
            if mid = 0 then []
            else List.map (fun p -> top + p) (sample r 2 mid)
          in
          List.fold_left (fun s p -> Pid.Set.add p s) base mids)
    in
    (v, Slice.explicit slices)
  in
  Quorum.system_of_list
    (List.init top top_node
    @ List.init mid mid_node
    @ List.init leaves leaf_node)
