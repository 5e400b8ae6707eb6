type t = int

let compare = Int.compare
let equal = Int.equal
let pp = Format.pp_print_int

module Set = struct
  include Set.Make (Int)

  let pp ppf s =
    Format.fprintf ppf "{%a}"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         Format.pp_print_int)
      (elements s)

  let of_range lo hi =
    let rec go acc i = if i < lo then acc else go (add i acc) (i - 1) in
    go empty hi

  let to_string s = Format.asprintf "%a" pp s

  let choose_distinct k s =
    if cardinal s < k then None
    else
      let rec take k = function
        | _ when k = 0 -> []
        | [] -> []
        | x :: rest -> x :: take (k - 1) rest
      in
      Some (take k (elements s))

  (* Subset [k] holds the [b]-th smallest element iff bit [b] of [k] is
     set, so the empty set comes first and [s] itself last. *)
  let fold_subsets f s acc =
    let elts = Array.of_list (elements s) in
    let n = Array.length elts in
    if n > 20 then invalid_arg "Pid.Set.fold_subsets: more than 20 elements";
    let acc = ref acc in
    for k = 0 to (1 lsl n) - 1 do
      let sub = ref empty in
      for b = 0 to n - 1 do
        if k land (1 lsl b) <> 0 then sub := add elts.(b) !sub
      done;
      acc := f !sub !acc
    done;
    !acc
end

module Dense_set = struct
  (* Packed bitset over native ints: word [w], bit [b] encodes membership
     of pid [w * bits_per_word + b]. Process ids are small non-negative
     integers, so the universe is dense and a handful of words covers a
     whole system; the quorum kernel then reduces to word-wise [land]
     plus popcount. Invariant: the word array is canonical (no trailing
     zero word), so structural equality of arrays coincides with set
     equality and the arrays hash well as table keys. *)

  let bits_per_word = Sys.int_size

  type t = int array

  let check_elt i =
    if i < 0 then invalid_arg "Pid.Dense_set: negative process id"

  (* Popcount via a 16-bit lookup table: the 64-bit SWAR constants do
     not fit OCaml's 63-bit immediates, and the table is branch-free and
     fast enough for the kernel. Words are split with logical shifts, so
     a set bit in the (negative) sign position is counted like any
     other. *)
  let pop16 =
    let naive x =
      let rec go acc x = if x = 0 then acc else go (acc + (x land 1)) (x lsr 1) in
      go 0 x
    in
    Bytes.init 65536 (fun i -> Char.chr (naive i))

  let popcount x =
    Char.code (Bytes.unsafe_get pop16 (x land 0xffff))
    + Char.code (Bytes.unsafe_get pop16 ((x lsr 16) land 0xffff))
    + Char.code (Bytes.unsafe_get pop16 ((x lsr 32) land 0xffff))
    + Char.code (Bytes.unsafe_get pop16 (x lsr 48))

  (* Number of trailing zeros of a one-bit word [b = x land (-x)]. *)
  let ntz_of_bit b = popcount (b - 1)

  let empty = [||]

  let is_empty t = Array.length t = 0

  let normalize a =
    let n = ref (Array.length a) in
    while !n > 0 && a.(!n - 1) = 0 do
      decr n
    done;
    if !n = Array.length a then a else Array.sub a 0 !n

  let mem i t =
    i >= 0
    &&
    let w = i / bits_per_word in
    w < Array.length t && (t.(w) lsr (i mod bits_per_word)) land 1 = 1

  let add i t =
    check_elt i;
    let w = i / bits_per_word in
    let bit = 1 lsl (i mod bits_per_word) in
    let len = Array.length t in
    if w < len then
      if t.(w) land bit <> 0 then t
      else begin
        let a = Array.copy t in
        a.(w) <- a.(w) lor bit;
        a
      end
    else begin
      let a = Array.make (w + 1) 0 in
      Array.blit t 0 a 0 len;
      a.(w) <- bit;
      a
    end

  let singleton i = add i empty

  let remove i t =
    if not (mem i t) then t
    else begin
      let a = Array.copy t in
      let w = i / bits_per_word in
      a.(w) <- a.(w) land lnot (1 lsl (i mod bits_per_word));
      normalize a
    end

  let union a b =
    let la = Array.length a and lb = Array.length b in
    if la = 0 then b
    else if lb = 0 then a
    else begin
      let big, small = if la >= lb then (a, b) else (b, a) in
      let r = Array.copy big in
      for i = 0 to Array.length small - 1 do
        r.(i) <- r.(i) lor small.(i)
      done;
      r
    end

  let inter a b =
    let l = min (Array.length a) (Array.length b) in
    let r = Array.make l 0 in
    for i = 0 to l - 1 do
      r.(i) <- a.(i) land b.(i)
    done;
    normalize r

  let diff a b =
    let r = Array.copy a in
    let l = min (Array.length a) (Array.length b) in
    for i = 0 to l - 1 do
      r.(i) <- r.(i) land lnot b.(i)
    done;
    normalize r

  let cardinal t = Array.fold_left (fun acc w -> acc + popcount w) 0 t

  let inter_cardinal a b =
    let l = min (Array.length a) (Array.length b) in
    let c = ref 0 in
    for i = 0 to l - 1 do
      c := !c + popcount (a.(i) land b.(i))
    done;
    !c

  (* The scans below are [while] loops over local refs, never capturing
     local closures or exceptions: the build has no flambda, so a local
     [let rec] that captures a variable is allocated at every call,
     while a ref that does not escape lives in a register. *)

  let subset a b =
    let la = Array.length a in
    la <= Array.length b
    &&
    let i = ref 0 in
    while !i < la && a.(!i) land lnot b.(!i) = 0 do
      incr i
    done;
    !i = la

  let disjoint a b =
    let l = min (Array.length a) (Array.length b) in
    let i = ref 0 in
    while !i < l && a.(!i) land b.(!i) = 0 do
      incr i
    done;
    !i = l

  let equal (a : t) (b : t) =
    let l = Array.length a in
    l = Array.length b
    &&
    let i = ref 0 in
    while !i < l && a.(!i) = b.(!i) do
      incr i
    done;
    !i = l

  (* A family of sets packed into one word array, each member padded
     to the width of the widest one, so that [exists_subset] scans it
     in one loop with no call per member. A non-empty family has a
     stride of at least one word, which lets an empty member (one zero
     word) be told apart from no member at all. *)
  type family = { stride : int; words : int array }

  let family members =
    let stride = List.fold_left (fun s m -> max s (Array.length m)) 1 members in
    let words = Array.make (stride * List.length members) 0 in
    List.iteri (fun k m -> Array.blit m 0 words (k * stride) (Array.length m))
      members;
    { stride; words }

  (* One pass over the packed words: [i] indexes [words], [w] is the
     word of the current member being compared; a word outside [q]
     fails unless it is zero, and a failing word jumps [i] to the next
     member. *)
  let exists_subset f q =
    let stride = f.stride and words = f.words in
    let n = Array.length words and lq = Array.length q in
    let i = ref 0 and w = ref 0 in
    while !w < stride && !i < n do
      let qw = if !w < lq then q.(!w) else 0 in
      if words.(!i) land lnot qw = 0 then begin
        incr i;
        incr w
      end
      else begin
        i := !i - !w + stride;
        w := 0
      end
    done;
    !w = stride

  let family_members f =
    List.init
      (Array.length f.words / f.stride)
      (fun k -> normalize (Array.sub f.words (k * f.stride) f.stride))

  let iter f t =
    for w = 0 to Array.length t - 1 do
      let base = w * bits_per_word in
      let x = ref t.(w) in
      while !x <> 0 do
        let b = !x land - !x in
        f (base + ntz_of_bit b);
        x := !x lxor b
      done
    done

  let fold f t acc =
    let acc = ref acc in
    iter (fun i -> acc := f i !acc) t;
    !acc

  (* Whether some member [i] of [t] has [p i = want], stopping at the
     first one. [want] is annotated so that [=] compiles to an integer
     compare, not a call to the polymorphic one. *)
  let some_member p (want : bool) t =
    let n = Array.length t in
    let w = ref 0 and found = ref false in
    while (not !found) && !w < n do
      let base = !w * bits_per_word in
      let x = ref t.(!w) in
      while (not !found) && !x <> 0 do
        let b = !x land - !x in
        if p (base + ntz_of_bit b) = want then found := true
        else x := !x lxor b
      done;
      incr w
    done;
    !found

  let for_all p t = not (some_member p false t)
  let exists p t = some_member p true t

  let filter p t =
    let r = Array.make (Array.length t) 0 in
    for w = 0 to Array.length t - 1 do
      let base = w * bits_per_word in
      let x = ref t.(w) in
      while !x <> 0 do
        let b = !x land - !x in
        if p (base + ntz_of_bit b) then r.(w) <- r.(w) lor b;
        x := !x lxor b
      done
    done;
    normalize r

  let elements t = List.rev (fold (fun i acc -> i :: acc) t [])

  let of_list l =
    List.iter check_elt l;
    match l with
    | [] -> empty
    | _ ->
        let m = List.fold_left max 0 l in
        let r = Array.make ((m / bits_per_word) + 1) 0 in
        List.iter
          (fun i ->
            r.(i / bits_per_word) <-
              r.(i / bits_per_word) lor (1 lsl (i mod bits_per_word)))
          l;
        normalize r

  let of_range lo hi =
    if hi < lo then empty
    else begin
      check_elt lo;
      let r = Array.make ((hi / bits_per_word) + 1) 0 in
      for i = lo to hi do
        r.(i / bits_per_word) <-
          r.(i / bits_per_word) lor (1 lsl (i mod bits_per_word))
      done;
      r
    end

  let of_set s =
    match Set.min_elt_opt s with
    | None -> empty
    | Some mn ->
        check_elt mn;
        let m = Set.max_elt s in
        let r = Array.make ((m / bits_per_word) + 1) 0 in
        Set.iter
          (fun i ->
            r.(i / bits_per_word) <-
              r.(i / bits_per_word) lor (1 lsl (i mod bits_per_word)))
          s;
        r

  let to_set t = fold (fun i acc -> Set.add i acc) t Set.empty

  let min_elt_opt t =
    if is_empty t then None
    else begin
      let w = ref 0 in
      while t.(!w) = 0 do
        incr w
      done;
      let x = t.(!w) in
      Some ((!w * bits_per_word) + ntz_of_bit (x land -x))
    end

  let max_elt_opt t =
    if is_empty t then None
    else begin
      let w = Array.length t - 1 in
      let x = ref t.(w) and last = ref 0 in
      while !x <> 0 do
        let b = !x land - !x in
        last := ntz_of_bit b;
        x := !x lxor b
      done;
      Some ((w * bits_per_word) + !last)
    end

  let pp ppf t =
    Format.fprintf ppf "{%a}"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         Format.pp_print_int)
      (elements t)

  let to_string t = Format.asprintf "%a" pp t
end

module Map = struct
  include Map.Make (Int)

  let keys m = fold (fun k _ acc -> Set.add k acc) m Set.empty

  let pp pp_v ppf m =
    Format.fprintf ppf "{%a}"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
         (fun ppf (k, v) -> Format.fprintf ppf "%d -> %a" k pp_v v))
      (bindings m)
end
