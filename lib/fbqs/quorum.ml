open Graphkit

type system = Slice.t Pid.Map.t

let system_of_list l =
  List.fold_left (fun m (i, s) -> Pid.Map.add i s m) Pid.Map.empty l

let slices_of sys i =
  Option.value ~default:(Slice.explicit []) (Pid.Map.find_opt i sys)

let participants = Pid.Map.keys

(* ---- compiled systems over the dense bitset kernel ------------------

   Algorithm 1 evaluates one predicate per member of the candidate set,
   and on the Algorithm 2 threshold systems every such predicate is the
   same [|Q ∩ members| >= threshold] count. A system is compiled once
   into pid-indexed arrays of dense bitsets: the per-member test becomes
   an array load plus (for threshold slices) one popcount shared across
   every member with a structurally equal member set ("class").

   Compilation is explicit ({!Compiled.compile}): a caller compiles
   once and passes the handle down its own loops. Nothing here keeps
   a handle. *)

module D = Pid.Dense_set

type entry =
  | Absent  (** no declared slices: never satisfies Algorithm 1 *)
  | Explicit_d of { slices : D.family; domain : D.t }
      (** [domain]: the union of the slices. *)
  | Threshold_d of { sat : bool; threshold : int; cls : int }
      (** [sat]: the slice set is non-empty ([threshold <= |members|]);
          [cls] indexes the shared member-set class. *)

type compiled = {
  parts : D.t;  (** the participants: every owner of a declared slice set *)
  bound : int;  (** pids outside [0, bound) are [Absent] *)
  entries : entry array;
  class_sets : D.t array;  (** distinct threshold member sets *)
}

(* Process ids are non-negative (DESIGN.md §8): a negative owner is
   refused here, a negative slice member by [D.of_set]. *)
let compile sys =
  (match Pid.Map.min_binding_opt sys with
  | Some (i, _) when i < 0 ->
      invalid_arg "Quorum.Compiled.compile: negative process id"
  | _ -> ());
  let bound =
    match Pid.Map.max_binding_opt sys with Some (k, _) -> k + 1 | None -> 0
  in
  let entries = Array.make bound Absent in
  let classes : (D.t, int) Hashtbl.t = Hashtbl.create 7 in
  let class_sets = ref [] in
  let n_classes = ref 0 in
  let class_of d =
    match Hashtbl.find_opt classes d with
    | Some c -> c
    | None ->
        let c = !n_classes in
        incr n_classes;
        Hashtbl.add classes d c;
        class_sets := d :: !class_sets;
        c
  in
  let owners = ref [] in
  Pid.Map.iter
    (fun i slice ->
      owners := i :: !owners;
      entries.(i) <-
        (match slice with
        | Slice.Explicit [] -> Absent
        | Slice.Explicit slices ->
            let ds = List.map D.of_set slices in
            Explicit_d
              {
                slices = D.family ds;
                domain = List.fold_left D.union D.empty ds;
              }
        | Slice.Threshold { members; threshold } ->
            let sat = threshold <= Pid.Set.cardinal members in
            Threshold_d { sat; threshold; cls = class_of (D.of_set members) }))
    sys;
  {
    parts = D.of_list !owners;
    bound;
    entries;
    class_sets = Array.of_list (List.rev !class_sets);
  }

(* The per-member test of Algorithm 1. [counts] memoizes one
   intersection cardinality per member-set class for the duration of a
   single candidate-set evaluation. *)
let member_ok c counts qd i =
  i < c.bound
  &&
  match c.entries.(i) with
  | Absent -> false
  | Explicit_d { slices; _ } -> D.exists_subset slices qd
  | Threshold_d { sat; threshold; cls } ->
      sat
      && threshold
         <=
         (let cnt = counts.(cls) in
          if cnt >= 0 then cnt
          else begin
            let cnt = D.inter_cardinal c.class_sets.(cls) qd in
            counts.(cls) <- cnt;
            cnt
          end)

module Compiled = struct
  type t = compiled

  let compile = compile
  let participants_d c = c.parts

  let is_quorum_d c qd =
    (not (D.is_empty qd))
    &&
    let counts = Array.make (Array.length c.class_sets) (-1) in
    D.for_all (member_ok c counts qd) qd

  let is_quorum c q = is_quorum_d c (D.of_set q)

  (* Discard members with no slice inside the current candidate until
     a fixpoint. Since the union of two quorums is a quorum, the
     fixpoint is the union of all quorums within [set]. A member that
     fails a round lies outside that fixpoint, so each round tests the
     members of [keep] first and gives up at the first one that fails;
     only a round they all pass tests the rest. *)
  let rec greatest_quorum_keeping_d c ~keep set =
    let counts = Array.make (Array.length c.class_sets) (-1) in
    let ok = member_ok c counts set in
    if not (D.subset keep set && D.for_all ok keep) then None
    else
      let next = D.union keep (D.filter ok (D.diff set keep)) in
      if D.equal next set then Some set
      else greatest_quorum_keeping_d c ~keep next

  let greatest_quorum_within_d c set =
    Option.get (greatest_quorum_keeping_d c ~keep:D.empty set)

  let greatest_quorum_within c set =
    D.to_set (greatest_quorum_within_d c (D.of_set set))

  let domain_d c i =
    if i >= c.bound then D.empty
    else
      match c.entries.(i) with
      | Absent -> D.empty
      | Explicit_d { domain; _ } -> domain
      | Threshold_d { sat; cls; _ } ->
          if sat then c.class_sets.(cls) else D.empty

  (* A slice of [i] avoids [b] iff it lies within [i]'s domain minus
     [b], so [b] blocks [i] iff [i] declares a slice and has none
     within [domain_d c i \ b]. For a threshold class that count is
     [|members \ b|], taken without building the difference. *)
  let is_v_blocking_d c i b =
    i < c.bound
    &&
    match c.entries.(i) with
    | Absent -> false
    | Explicit_d { slices; domain } ->
        not (D.exists_subset slices (D.diff domain b))
    | Threshold_d { sat; threshold; cls } ->
        let members = c.class_sets.(cls) in
        sat && D.cardinal members - D.inter_cardinal members b < threshold

  (* Mazières' delete operation on the compiled form: the members of
     [b] leave the participants and every remaining slice. An explicit
     slice loses its members in [b] (one that [b] empties is met by
     every candidate). Deleting [b] from "all t-subsets of members"
     leaves the sets [s \ b], whose weakest elements are the
     (t - |members ∩ b|)-subsets of the survivors, so a threshold entry
     keeps its form over its class minus [b], with the threshold
     reduced by the members it lost; [sat] is unchanged. Each class is
     cut once, for all the entries that share it. A pid the system
     never names (a negative one included) deletes nothing, so it is
     dropped before [D.of_set], which would size [b] by it. *)
  let names c i =
    D.mem i c.parts
    || Array.exists (D.mem i) c.class_sets
    || Array.exists
         (function Explicit_d { domain; _ } -> D.mem i domain | _ -> false)
         c.entries

  let delete c b =
    let b = D.of_set (Pid.Set.filter (names c) b) in
    let entry i e =
      if D.mem i b then Absent
      else
        match e with
        | Absent -> Absent
        | Explicit_d { slices; domain } ->
            Explicit_d
              {
                slices =
                  D.family
                    (List.map (fun s -> D.diff s b) (D.family_members slices));
                domain = D.diff domain b;
              }
        | Threshold_d { sat; threshold; cls } ->
            let hit = D.inter_cardinal c.class_sets.(cls) b in
            Threshold_d { sat; threshold = max 0 (threshold - hit); cls }
    in
    {
      parts = D.diff c.parts b;
      bound = c.bound;
      entries = Array.mapi entry c.entries;
      class_sets = Array.map (fun m -> D.diff m b) c.class_sets;
    }

  (* ---- the word view ---------------------------------------------------

     A search that never leaves a member set [u] of at most [word_bits]
     pids runs on one machine word: bit [k] stands for the [k]-th
     smallest pid of [u], so bit order is pid order. Each member keeps
     only what a candidate inside [u] can meet: the explicit slices that
     lie within [u], or its threshold class cut down to [u] (a candidate
     inside [u] meets the rest of the class nowhere). Per member [k],
     [need.(k)] is the threshold over [class_w.(k)], or [-1] for explicit
     slices, which are [slice_w.(slices_at.(k))] up to
     [slice_w.(slices_at.(k + 1))]; a member that can never be satisfied
     needs [max_int]. *)

  let word_bits = 62

  type words = {
    pids : int array;  (* bit -> pid, ascending *)
    need : int array;
    class_w : int array;
    slices_at : int array;
    slice_w : int array;
  }

  let ntz b = D.popcount (b - 1)

  (* The bits of the members of [d] among [pids]. *)
  let bits_of pids d =
    let r = ref 0 in
    Array.iteri (fun k i -> if D.mem i d then r := !r lor (1 lsl k)) pids;
    !r

  let words c u =
    let n = D.cardinal u in
    if n > word_bits then
      invalid_arg "Quorum.Compiled.words: more than 62 members";
    let pids = Array.of_list (D.elements u) in
    let need = Array.make n max_int and class_w = Array.make n 0 in
    let slices_at = Array.make (n + 1) 0 and slices = ref [] and count = ref 0 in
    Array.iteri
      (fun k i ->
        (if i < c.bound then
           match c.entries.(i) with
           | Absent -> ()
           | Explicit_d { slices = f; _ } ->
               need.(k) <- -1;
               List.iter
                 (fun s ->
                   if D.subset s u then begin
                     slices := bits_of pids s :: !slices;
                     incr count
                   end)
                 (D.family_members f)
           | Threshold_d { sat; threshold; cls } ->
               if sat then begin
                 need.(k) <- threshold;
                 class_w.(k) <- bits_of pids c.class_sets.(cls)
               end);
        slices_at.(k + 1) <- !count)
      pids;
    { pids; need; class_w; slices_at; slice_w = Array.of_list (List.rev !slices) }

  (* Algorithm 1's per-member test for bit [k] of candidate [q]. *)
  let member_ok_w w k q =
    let need = w.need.(k) in
    if need >= 0 then D.popcount (q land w.class_w.(k)) >= need
    else begin
      let j = ref w.slices_at.(k) and stop = w.slices_at.(k + 1) in
      while !j < stop && w.slice_w.(!j) land lnot q <> 0 do
        incr j
      done;
      !j < stop
    end

  (* Whether every member of [x] passes the test against [q]. *)
  let all_ok_w w x q =
    let x = ref x in
    while !x <> 0 && member_ok_w w (ntz (!x land - !x)) q do
      x := !x land (!x - 1)
    done;
    !x = 0

  let is_quorum_w w q = q <> 0 && all_ok_w w q q

  let universe_w w = (1 lsl Array.length w.pids) - 1

  let set_of_word w q =
    let s = ref Pid.Set.empty and x = ref q in
    while !x <> 0 do
      let b = !x land - !x in
      s := Pid.Set.add w.pids.(ntz b) !s;
      x := !x lxor b
    done;
    !s

  (* The rounds of [greatest_quorum_keeping_d] on words, [keep] first;
     [-1], which no view's set equals, stands for [None]. *)
  let rec greatest_quorum_keeping_w w ~keep q =
    if keep land lnot q <> 0 || not (all_ok_w w keep q) then -1
    else begin
      let next = ref keep and x = ref (q land lnot keep) in
      while !x <> 0 do
        let b = !x land - !x in
        if member_ok_w w (ntz b) q then next := !next lor b;
        x := !x lxor b
      done;
      let next = !next in
      if next = q then q else greatest_quorum_keeping_w w ~keep next
    end
end

let cache_stats () =
  { Core.Cache.hits = 0; misses = 0; evictions = 0; length = 0; capacity = 0 }

let enum_quorums sys =
  let c = Compiled.compile sys in
  Pid.Set.fold_subsets
    (fun s acc -> if Compiled.is_quorum c s then s :: acc else acc)
    (participants sys) []

let keep_minimal quorums =
  List.filter
    (fun q ->
      not
        (List.exists
           (fun q' -> (not (Pid.Set.equal q q')) && Pid.Set.subset q' q)
           quorums))
    quorums

let minimal_quorums sys = keep_minimal (enum_quorums sys)

let minimal_quorums_of sys i =
  keep_minimal (List.filter (Pid.Set.mem i) (enum_quorums sys))
