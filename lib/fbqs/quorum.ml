open Graphkit

type system = Slice.t Pid.Map.t

let system_of_list l =
  List.fold_left (fun m (i, s) -> Pid.Map.add i s m) Pid.Map.empty l

let slices_of sys i =
  Option.value ~default:(Slice.Explicit []) (Pid.Map.find_opt i sys)

let participants = Pid.Map.keys

(* ---- compiled systems over the dense bitset kernel ------------------

   Algorithm 1 evaluates one predicate per member of the candidate set,
   and on the Algorithm 2 threshold systems every such predicate is the
   same [|Q ∩ members| >= threshold] count. A system is compiled once
   into pid-indexed arrays of dense bitsets: the per-member test becomes
   an array load plus (for threshold slices) one popcount shared across
   every member with a structurally equal member set ("class").

   Compilation is explicit ({!Compiled.compile}); the historical
   implicit entry points below keep working through a bounded
   most-recently-compiled cache keyed by physical equality. *)

module D = Pid.Dense_set

type entry =
  | Absent  (** no declared slices: never satisfies Algorithm 1 *)
  | Explicit_d of D.t array
  | Threshold_d of { sat : bool; threshold : int; cls : int }
      (** [sat]: the slice set is non-empty ([threshold <= |members|]);
          [cls] indexes the shared member-set class. *)

type compiled = {
  csys : system;  (** the compiled system, also the implicit-cache key *)
  bound : int;  (** pids outside [0, bound) are [Absent] *)
  entries : entry array;
  class_sets : D.t array;  (** distinct threshold member sets *)
  mutable queries : int;  (** membership queries answered *)
  mutable popcounts : int;  (** D.inter_cardinal calls performed *)
}

(* Process ids are non-negative (DESIGN.md §8): a negative owner is
   refused here, a negative slice member by [D.of_set]. *)
let compile_raw sys =
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
  Pid.Map.iter
    (fun i slice ->
      entries.(i) <-
        (match slice with
        | Slice.Explicit [] -> Absent
        | Slice.Explicit slices ->
            Explicit_d (Array.of_list (List.map D.of_set slices))
        | Slice.Threshold { members; threshold } ->
            let sat = threshold <= Pid.Set.cardinal members in
            Threshold_d { sat; threshold; cls = class_of (D.of_set members) }))
    sys;
  {
    csys = sys;
    bound;
    entries;
    class_sets = Array.of_list (List.rev !class_sets);
    queries = 0;
    popcounts = 0;
  }

(* The per-member test of Algorithm 1. [counts] memoizes one
   intersection cardinality per member-set class for the duration of a
   single candidate-set evaluation. *)
let member_ok c counts qd i =
  i < c.bound
  &&
  match c.entries.(i) with
  | Absent -> false
  | Explicit_d slices ->
      (* a loop: a capturing [let rec] is allocated per call without
         flambda (DESIGN.md §8) *)
      let n = Array.length slices in
      let k = ref 0 in
      while !k < n && not (D.subset slices.(!k) qd) do
        incr k
      done;
      !k < n
  | Threshold_d { sat; threshold; cls } ->
      sat
      && threshold
         <=
         (let cnt = counts.(cls) in
          if cnt >= 0 then cnt
          else begin
            c.popcounts <- c.popcounts + 1;
            let cnt = D.inter_cardinal c.class_sets.(cls) qd in
            counts.(cls) <- cnt;
            cnt
          end)

module Compiled = struct
  type t = compiled

  let compile = compile_raw
  let system c = c.csys

  let is_quorum_d c qd =
    c.queries <- c.queries + 1;
    (not (D.is_empty qd))
    &&
    let counts = Array.make (Array.length c.class_sets) (-1) in
    D.for_all (member_ok c counts qd) qd

  let is_quorum c q = is_quorum_d c (D.of_set q)
  let is_quorum_of c i q = Pid.Set.mem i q && is_quorum c q

  (* Discard members with no slice inside the current candidate until
     a fixpoint. Since the union of two quorums is a quorum, the
     fixpoint is the union of all quorums within [set]. *)
  let greatest_quorum_within_d c set =
    c.queries <- c.queries + 1;
    let rec go qd =
      let counts = Array.make (Array.length c.class_sets) (-1) in
      let keep = D.filter (member_ok c counts qd) qd in
      if D.equal keep qd then qd else go keep
    in
    go set

  let contains_quorum_d c set =
    not (D.is_empty (greatest_quorum_within_d c set))

  let greatest_quorum_within c set =
    D.to_set (greatest_quorum_within_d c (D.of_set set))

  let contains_quorum c set =
    not (Pid.Set.is_empty (greatest_quorum_within c set))

  (* Declared after the queries so the immutable stats fields do not
     shadow the compiled record's mutable counters of the same name. *)
  type stats = { queries : int; popcounts : int }

  let stats (c : t) = { queries = c.queries; popcounts = c.popcounts }
end

let compile = Compiled.compile

(* ---- shared compiled-handle cache ------------------------------------

   Bounded most-recently-used cache over {!Core.Cache}, keyed by
   physical equality of the system map. Sized for a simulation's worth
   of per-node evolving slice views; a miss costs one O(system)
   compilation, about the price of a single tree-set query. SCP
   federated voting, whose system grows as envelopes arrive, is the
   intended client; so is the analysis daemon, whose file cache keeps
   hot systems alive so repeated analyses reuse one handle. Code
   holding a stable system may call {!Compiled.compile} directly to
   bypass the cache. *)

let cache : (system, compiled) Core.Cache.t =
  Core.Cache.create ~name:"fbqs_quorum_compiled" ~capacity:64 ()

let cache_stats () = Core.Cache.stats cache
let set_cache_capacity n = Core.Cache.set_capacity cache n
let attach_cache_metrics registry = Core.Cache.attach_metrics cache registry
let compiled_of sys = Core.Cache.find_or_add cache sys (fun () -> compile_raw sys)

let is_quorum sys q = Compiled.is_quorum (compiled_of sys) q
let is_quorum_of sys i q = Pid.Set.mem i q && is_quorum sys q

let greatest_quorum_within sys set =
  Compiled.greatest_quorum_within (compiled_of sys) set

let contains_quorum sys set =
  not (Pid.Set.is_empty (greatest_quorum_within sys set))

(* Mazières' delete operation: remove the nodes of [b] from the system
   and from every remaining slice. Lives here (rather than in {!Dset},
   which re-exports it) so that the {!Enum} analyzer can delete without
   depending on the DSet layer it accelerates. *)
let delete sys b =
  Pid.Map.filter_map
    (fun i slices ->
      if Pid.Set.mem i b then None
      else
        Some
          (match slices with
          | Slice.Explicit l ->
              Slice.Explicit (List.map (fun s -> Pid.Set.diff s b) l)
          | Slice.Threshold { members; threshold } ->
              (* Deleting [b] from "all t-subsets of members" yields the
                 set {s \ b}, whose weakest elements are the
                 (t - |members ∩ b|)-subsets of the survivors; both
                 has_slice_within and all_slices_intersect depend only
                 on those, so the result is exactly a threshold slice
                 over the survivors with the reduced threshold. *)
              let hit = Pid.Set.cardinal (Pid.Set.inter members b) in
              Slice.Threshold
                {
                  members = Pid.Set.diff members b;
                  threshold = max 0 (threshold - hit);
                }))
    sys

let subsets_fold f universe acc =
  let elts = Array.of_list (Pid.Set.elements universe) in
  let n = Array.length elts in
  if n > 20 then
    invalid_arg "Quorum.enum_quorums: universe larger than 20 processes";
  let acc = ref acc in
  for mask = 1 to (1 lsl n) - 1 do
    let s = ref Pid.Set.empty in
    for b = 0 to n - 1 do
      if mask land (1 lsl b) <> 0 then s := Pid.Set.add elts.(b) !s
    done;
    acc := f !s !acc
  done;
  !acc

let enum_quorums ?universe sys =
  let universe = Option.value ~default:(participants sys) universe in
  let c = compiled_of sys in
  subsets_fold
    (fun s acc -> if Compiled.is_quorum c s then s :: acc else acc)
    universe []

let keep_minimal quorums =
  List.filter
    (fun q ->
      not
        (List.exists
           (fun q' -> (not (Pid.Set.equal q q')) && Pid.Set.subset q' q)
           quorums))
    quorums

let minimal_quorums ?universe sys = keep_minimal (enum_quorums ?universe sys)

let minimal_quorums_of ?universe sys i =
  let quorums_of_i =
    List.filter (Pid.Set.mem i) (enum_quorums ?universe sys)
  in
  keep_minimal quorums_of_i

let is_v_blocking sys i b =
  match slices_of sys i with
  | Slice.Explicit [] -> false
  | s when Slice.slice_count s = 0 -> false
  | s -> Slice.all_slices_intersect s b
