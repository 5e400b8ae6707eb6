open Graphkit

type t =
  | Explicit of Pid.Set.t list
  | Threshold of { members : Pid.Set.t; threshold : int }

let explicit slices = Explicit slices

let threshold ~members ~threshold =
  if threshold < 0 then invalid_arg "Slice.threshold: negative threshold";
  Threshold { members; threshold }

let pp ppf = function
  | Explicit slices ->
      Format.fprintf ppf "@[<h>[%a]@]"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
           Pid.Set.pp)
        slices
  | Threshold { members; threshold } ->
      Format.fprintf ppf "any %d of %a" threshold Pid.Set.pp members

let equal a b =
  match (a, b) with
  | Explicit xs, Explicit ys ->
      List.length xs = List.length ys && List.for_all2 Pid.Set.equal xs ys
  | Threshold a, Threshold b ->
      a.threshold = b.threshold && Pid.Set.equal a.members b.members
  | Explicit _, Threshold _ | Threshold _, Explicit _ -> false

let domain = function
  | Explicit slices -> List.fold_left Pid.Set.union Pid.Set.empty slices
  | Threshold { members; threshold } ->
      if threshold > Pid.Set.cardinal members then Pid.Set.empty else members

(* C(n, k) saturating at max_int. *)
let binomial n k =
  if k < 0 || k > n then 0
  else begin
    let k = min k (n - k) in
    let rec go acc i =
      if i > k then acc
      else
        let acc' = acc * (n - k + i) / i in
        if acc' < acc then max_int else go acc' (i + 1)
    in
    go 1 1
  end

let slice_count = function
  | Explicit slices -> List.length slices
  | Threshold { members; threshold } ->
      binomial (Pid.Set.cardinal members) threshold

let enumerate = function
  | Explicit slices -> slices
  | Threshold { members; threshold } as t ->
      if slice_count t > 100_000 then
        invalid_arg "Slice.enumerate: symbolic slice set too large";
      if threshold = 0 then [ Pid.Set.empty ]
      else
        let elts = Array.of_list (Pid.Set.elements members) in
        let n = Array.length elts in
        if threshold > n then []
        else begin
          (* All size-[threshold] subsets by iterating index vectors in
             lexicographic order — the same order the old recursive
             construction produced, without its quadratic appends. *)
          let idx = Array.init threshold (fun j -> j) in
          let acc = ref [] in
          let running = ref true in
          while !running do
            let s = ref Pid.Set.empty in
            for j = threshold - 1 downto 0 do
              s := Pid.Set.add elts.(idx.(j)) !s
            done;
            acc := !s :: !acc;
            let j = ref (threshold - 1) in
            while !j >= 0 && idx.(!j) = n - threshold + !j do
              decr j
            done;
            if !j < 0 then running := false
            else begin
              idx.(!j) <- idx.(!j) + 1;
              for k = !j + 1 to threshold - 1 do
                idx.(k) <- idx.(k - 1) + 1
              done
            end
          done;
          List.rev !acc
        end

let has_slice_within t q =
  match t with
  | Explicit slices -> List.exists (fun s -> Pid.Set.subset s q) slices
  | Threshold { members; threshold } ->
      threshold <= Pid.Set.cardinal members
      && Pid.Set.cardinal (Pid.Set.inter members q) >= threshold

let all_slices_intersect t b =
  match t with
  | Explicit slices ->
      List.for_all (fun s -> not (Pid.Set.is_empty (Pid.Set.inter s b))) slices
  | Threshold { members; threshold } ->
      if threshold > Pid.Set.cardinal members then true
        (* no slices: vacuous *)
      else if threshold = 0 then false (* the empty slice avoids any b *)
      else Pid.Set.cardinal (Pid.Set.diff members b) < threshold

let has_slice_avoiding t b =
  (match t with
  | Explicit [] -> false
  | Explicit _ -> true
  | Threshold { members; threshold } ->
      threshold <= Pid.Set.cardinal members)
  && not (all_slices_intersect t b)

let map_members f = function
  | Explicit slices -> Explicit (List.map (Pid.Set.map f) slices)
  | Threshold { members; threshold } ->
      Threshold { members = Pid.Set.map f members; threshold }
