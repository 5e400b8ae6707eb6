open Graphkit

type kind = Vote | Accept

type t = {
  origin : Pid.t;
  kind : kind;
  stmt : Statement.t;
  slices : Fbqs.Slice.t;
}

let vote origin ~slices stmt = { origin; kind = Vote; stmt; slices }
let accept origin ~slices stmt = { origin; kind = Accept; stmt; slices }

let kind_tag = function Vote -> 0 | Accept -> 1

(* A canonical total order on slice declarations (Set.compare is
   representation-independent, unlike polymorphic compare). *)
let compare_slices a b =
  match (a, b) with
  | ( Fbqs.Slice.Threshold { members = m1; threshold = t1 },
      Fbqs.Slice.Threshold { members = m2; threshold = t2 } ) -> (
      match Int.compare t1 t2 with 0 -> Pid.Set.compare m1 m2 | c -> c)
  | Fbqs.Slice.Explicit l1, Fbqs.Slice.Explicit l2 ->
      List.compare Pid.Set.compare l1 l2
  | Fbqs.Slice.Threshold _, Fbqs.Slice.Explicit _ -> -1
  | Fbqs.Slice.Explicit _, Fbqs.Slice.Threshold _ -> 1

(* Relayers forward the envelope they stored, so a duplicate is
   usually the very value already in the dedup table. *)
let compare a b =
  if a == b then 0
  else
    match Pid.compare a.origin b.origin with
    | 0 -> (
        match Int.compare (kind_tag a.kind) (kind_tag b.kind) with
        | 0 -> (
            match Statement.compare a.stmt b.stmt with
            | 0 -> compare_slices a.slices b.slices
            | c -> c)
        | c -> c)
    | c -> c

let equal a b = compare a b = 0

(* The slices are left out: envelopes that differ only there share a
   hash, and [equal] tells them apart. The last two steps spread the
   low bits a power-of-two table indexes by. *)
let hash m =
  let h =
    (((m.origin * 65599) + kind_tag m.kind) * 65599) + Statement.hash m.stmt
  in
  let h = h * 0x5bd1e995 in
  (h lxor (h lsr 29)) land max_int

let pp ppf m =
  Format.fprintf ppf "%s(%d, %a)"
    (match m.kind with Vote -> "vote" | Accept -> "accept")
    m.origin Statement.pp m.stmt
