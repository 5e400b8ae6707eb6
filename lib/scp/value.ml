(* A value is its elements as a strictly ascending int array. The type
   is abstract and nothing writes a cell after construction, so values
   may share arrays. Comparisons and unions run on every statement-map
   lookup and every ballot, so they are [while] loops over the arrays
   (DESIGN.md §8's kernel rule). *)

type t = int array

let of_ints l = Array.of_list (List.sort_uniq Int.compare l)

(* lint: allow R2 — a zero-length array has no cell to write *)
let empty : t = [||]

let is_empty v = Array.length v = 0
let singleton x = [| x |]
let to_list = Array.to_list

(* The merge of two ascending arrays, dropping duplicates. *)
let union a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 then b
  else if lb = 0 then a
  else begin
    let out = Array.make (la + lb) 0 in
    let i = ref 0 and j = ref 0 and k = ref 0 in
    while !i < la && !j < lb do
      let x = a.(!i) and y = b.(!j) in
      if x <= y then begin
        out.(!k) <- x;
        incr i;
        if x = y then incr j
      end
      else begin
        out.(!k) <- y;
        incr j
      end;
      incr k
    done;
    while !i < la do
      out.(!k) <- a.(!i);
      incr i;
      incr k
    done;
    while !j < lb do
      out.(!k) <- b.(!j);
      incr j;
      incr k
    done;
    if !k = la + lb then out else Array.sub out 0 !k
  end

let combine = List.fold_left union empty

(* By length, then lexicographically: on ascending arrays this is the
   order of (cardinal, Set.compare) on the same elements. *)
let compare (a : t) (b : t) =
  if a == b then 0
  else
    let la = Array.length a in
    let c = Int.compare la (Array.length b) in
    if c <> 0 then c
    else begin
      let i = ref 0 in
      while !i < la && a.(!i) = b.(!i) do
        incr i
      done;
      if !i = la then 0 else Int.compare a.(!i) b.(!i)
    end

let equal a b = compare a b = 0

let hash (v : t) =
  let h = ref (Array.length v) in
  for i = 0 to Array.length v - 1 do
    h := (!h * 65599) + v.(i)
  done;
  !h land max_int

let judge ~proposed decided =
  let agreement =
    match decided with [] -> true | v :: rest -> List.for_all (equal v) rest
  in
  (* [v] is a subset of [proposed] exactly when adding it changes
     nothing. *)
  let validity =
    List.for_all (fun v -> equal (union proposed v) proposed) decided
  in
  (agreement, validity)

let pp ppf v =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
       Format.pp_print_int)
    (to_list v)
