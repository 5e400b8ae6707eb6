open Graphkit
module D = Pid.Dense_set

(* Branch-and-bound analysis engine over the dense bitset kernel.

   Everything here is built on one search primitive: enumerate the
   inclusion-minimal quorums of a compiled system by branching on
   "pid in / pid out" decisions, with two exact prunings.

   - Contraction. All quorums live inside the greatest quorum [W] of
     the full participant set, and every minimal quorum lies within a
     single strongly connected component of the trust graph restricted
     to [W] (a minimal quorum restricted to a sink SCC of its own
     induced trust graph is itself a quorum, so minimality forces the
     quorum into one SCC). Only SCCs that contain a quorum are
     searched; live-network topologies collapse to a top tier of a few
     dozen validators this way.

   - Viability bound. A branch (selection, available) can produce a
     quorum iff [selection ⊆ greatest_quorum_within available]: the
     union of all quorums inside [available] is itself a quorum
     (quorums are closed under union), so the test is exact, and the
     branch's candidate pool shrinks to that greatest quorum.

   Found quorums are confirmed minimal on the spot (dropping any single
   member must leave no quorum), so no superset bookkeeping or global
   minimisation pass is needed — which is what makes the
   quorum-intersection check on a n=200-validator topology answer in
   well under a second. A question that wants only intersection's yes
   or no runs the same walk bounded at half the quorum-bearing SCC and
   stops at its first hit ([intersects] below). *)

type stats = { explored : int; pruned : int; found : int }

(* The counts behind [stats], plus the metrics counters they drive. An
   analyzer owns one; every parallel job walks on a fresh one with no
   counters, and [absorb] folds it back. *)
type tally = {
  mutable explored : int;
  mutable pruned : int;
  mutable found : int;
  c_explored : Obs.Metrics.counter option;
  c_pruned : Obs.Metrics.counter option;
  c_found : Obs.Metrics.counter option;
}

(* An analyzer owns its compiled system: every search on [t] shares
   the handle, and nothing keeps it alive once [t] is dropped. *)
type t = {
  compiled : Quorum.Compiled.t;
  parts : Pid.Set.t;
  tally : tally;
  mutable sccs : D.t list option;  (* memo of [quorum_sccs] *)
  mutable minimal : Pid.Set.t list option;  (* cache, canonical order *)
}

let new_tally ?metrics () =
  let counter name =
    Option.map (fun m -> Obs.Metrics.counter m name) metrics
  in
  {
    explored = 0;
    pruned = 0;
    found = 0;
    c_explored = counter "fbqs_enum_explored";
    c_pruned = counter "fbqs_enum_pruned";
    c_found = counter "fbqs_enum_quorums_found";
  }

let of_compiled ?metrics compiled =
  {
    compiled;
    parts = Quorum.participants (Quorum.Compiled.system compiled);
    tally = new_tally ?metrics ();
    sccs = None;
    minimal = None;
  }

let prepare ?metrics sys = of_compiled ?metrics (Quorum.Compiled.compile sys)

let system t = Quorum.Compiled.system t.compiled

let stats t : stats =
  {
    explored = t.tally.explored;
    pruned = t.tally.pruned;
    found = t.tally.found;
  }

let tick_explored tl =
  tl.explored <- tl.explored + 1;
  Option.iter (fun c -> Obs.Metrics.incr c) tl.c_explored

let tick_pruned tl =
  tl.pruned <- tl.pruned + 1;
  Option.iter (fun c -> Obs.Metrics.incr c) tl.c_pruned

let tick_found tl =
  tl.found <- tl.found + 1;
  Option.iter (fun c -> Obs.Metrics.incr c) tl.c_found

(* Adds a finished job's counts to [into] and drives [into]'s counters
   by the same amounts, so they end where ticking one by one would
   have left them. *)
let absorb into (tl : tally) =
  let bump counter by =
    match counter with
    | Some c when by > 0 -> Obs.Metrics.incr ~by c
    | _ -> ()
  in
  into.explored <- into.explored + tl.explored;
  bump into.c_explored tl.explored;
  into.pruned <- into.pruned + tl.pruned;
  bump into.c_pruned tl.pruned;
  into.found <- into.found + tl.found;
  bump into.c_found tl.found

let canonical sets =
  List.sort
    (fun a b ->
      match Int.compare (Pid.Set.cardinal a) (Pid.Set.cardinal b) with
      | 0 -> Pid.Set.compare a b
      | c -> c)
    sets

(* ---- one walk per search, at any jobs count ---------------------------- *)

(* Each search below is written once, as a walk: [walk tally ~frontier
   ~emit node] visits the search tree below [node], ticking [tally] and
   passing every find to [emit], except that calls reaching depth
   [frontier] are returned, in visiting order, instead of descended.

   [search] runs a walk at any [jobs] count. At [jobs = 1] it walks
   every root to the bottom on the analyzer's own tally. At [jobs > 1]
   it walks them down to [frontier] the same way, then runs each
   deferred call as a {!Simkit.Exec.map} job: the same walk, to the
   bottom, on a fresh tally with no counters (a live registry is shared
   mutable state no job may touch), folded back by [absorb]. Subtrees
   are independent and finds merge through {!canonical}, so results,
   [stats] and metrics are byte-identical at every [jobs] count. Nodes
   are dense sets and a job captures only the walk's compiled system
   or quorum-incidence arrays (plain data), so jobs survive the fork
   backend's closure [Marshal] unchanged. Both are immutable: jobs
   share no mutable state.

   A finite [limit] stops the walk at the [limit]-th find and keeps the
   sequential path: which finds survive a truncation depends on
   discovery order, which sharding does not preserve. *)

exception Stop

(* One deferred call, walked to the bottom: the body of every job. *)
let finish walk node =
  let tl = new_tally () and found = ref [] in
  ignore
    (walk tl ~frontier:max_int
       ~emit:(fun x -> found := D.to_set x :: !found)
       node);
  (!found, tl)

let search ?(limit = max_int) ~jobs ~frontier tl walk roots =
  let found = ref [] and count = ref 0 in
  let emit x =
    found := D.to_set x :: !found;
    incr count;
    if !count >= limit then raise Stop
  in
  let complete =
    if jobs > 1 && limit = max_int then begin
      let deferred = List.concat_map (walk tl ~frontier ~emit) roots in
      List.iter
        (fun (sets, job) ->
          found := List.rev_append sets !found;
          absorb tl job)
        (Simkit.Exec.map ~jobs (finish walk) deferred);
      true
    end
    else
      match
        List.iter
          (fun root -> ignore (walk tl ~frontier:max_int ~emit root))
          roots
      with
      | () -> true
      | exception Stop -> false
  in
  (canonical !found, complete)

(* ---- minimal quorums -------------------------------------------------- *)

(* [q] is minimal iff every member [v] is essential: [q \ v] holds no
   quorum. Members are tried in ascending order and the ones already
   shown essential are passed as [keep]: a fixpoint that drops an
   essential [w] proves [gq (q \ v) ⊆ gq (q \ w) = ∅], so only the
   first member runs its fixpoint to the end. *)
let minimal_quorum c q =
  let essential = ref D.empty in
  D.for_all
    (fun v ->
      match
        Quorum.Compiled.greatest_quorum_keeping_d c ~keep:!essential
          (D.remove v q)
      with
      | Some gq when not (D.is_empty gq) -> false
      | _ ->
          essential := D.add v !essential;
          true)
    q

(* Depth-first walk over the quorums inside a universe already
   contracted to a greatest quorum. A node is (selection, remaining
   candidates, available pool). Candidates branch in ascending pid
   order, so the emission order — and with it every downstream report
   — is deterministic. A selection that is a quorum ends its branch
   (its supersets are quorums too) and is emitted when [accept] holds;
   a selection of [bound] members that is not a quorum ends it too.
   Enumeration passes [max_int] and {!minimal_quorum}; the
   intersection decision below passes half the universe and a
   complement test. *)
let quorum_walk c ~bound ~accept tl ~frontier ~emit
    (selection, remaining, available) =
  let deferred = ref [] in
  let rec go depth size selection remaining available =
    if depth >= frontier then
      deferred := (selection, remaining, available) :: !deferred
    else begin
      tick_explored tl;
      if Quorum.Compiled.is_quorum_d c selection then begin
        if accept selection then begin
          tick_found tl;
          emit selection
        end
      end
      else if size < bound then
        match remaining with
        | [] -> ()
        | v :: rest ->
            go (depth + 1) (size + 1) (D.add v selection) rest available;
            match
              Quorum.Compiled.greatest_quorum_keeping_d c ~keep:selection
                (D.remove v available)
            with
            | Some gq ->
                go (depth + 1) size selection
                  (List.filter (fun u -> D.mem u gq) rest)
                  gq
            | None -> tick_pruned tl
    end
  in
  go 0 (D.cardinal selection) selection remaining available;
  List.rev !deferred

(* The SCCs of the trust graph restricted to the greatest quorum, kept
   only when they contain a quorum — the contraction step. Returns
   each component already shrunk to its own greatest quorum. Row [i]
   is [domain_d i ∩ W], ascending and inside [W], so the rows compile
   straight into a CSR handle with [Csr.of_rows]: no tree-set graph is
   built. *)
let contract c parts =
  let w = Quorum.Compiled.greatest_quorum_within_d c (D.of_set parts) in
  if D.is_empty w then []
  else begin
    let row i = (i, D.elements (D.inter (Quorum.Compiled.domain_d c i) w)) in
    List.filter_map
      (fun scc ->
        let gq = Quorum.Compiled.greatest_quorum_within_d c (D.of_set scc) in
        if D.is_empty gq then None else Some gq)
      (Csr.scc_components (Csr.of_rows (List.map row (D.elements w))))
  end

let quorum_sccs t =
  match t.sccs with
  | Some sccs -> sccs
  | None ->
      let sccs = contract t.compiled t.parts in
      t.sccs <- Some sccs;
      sccs

(* The search tree is deep and narrow ("pid in / pid out"), so its
   frontier sits five decisions down. *)
let quorum_frontier_depth = 5

let minimal_quorums ?(jobs = 1) t =
  match t.minimal with
  | Some q -> q
  | None ->
      let result =
        fst
          (search ~jobs ~frontier:quorum_frontier_depth t.tally
             (quorum_walk t.compiled ~bound:max_int
                ~accept:(minimal_quorum t.compiled))
             (List.map
                (fun universe -> (D.empty, D.elements universe, universe))
                (quorum_sccs t)))
      in
      t.minimal <- Some result;
      result

let top_tier ?jobs t =
  List.fold_left Pid.Set.union Pid.Set.empty (minimal_quorums ?jobs t)

(* ---- quorum intersection ---------------------------------------------- *)

type intersection = Intersects | Disjoint of Pid.Set.t * Pid.Set.t

(* The first minimal quorum, in canonical order, whose complement
   holds a quorum, with the greatest quorum of that complement. Any
   quorum outside [q] contains a minimal quorum, and every minimal
   quorum lies in the top tier [T], so the test runs on [T \ q]; only a
   hit pays for the fixpoint over the whole complement. *)
let verdict t quorums =
  let gq = Quorum.Compiled.greatest_quorum_within_d t.compiled in
  let tier =
    List.fold_left (fun acc q -> D.union acc (D.of_set q)) D.empty quorums
  in
  let parts = D.of_set t.parts in
  List.find_map
    (fun q ->
      let qd = D.of_set q in
      if D.is_empty (gq (D.diff tier qd)) then None
      else Some (Disjoint (q, D.to_set (gq (D.diff parts qd)))))
    quorums
  |> Option.value ~default:Intersects

(* The contraction and the enumeration are both kept in [t], so the
   answer, witness included, is the same whichever calls ran on [t]
   before. *)
let check_intersection ?jobs t =
  match quorum_sccs t with
  | [] -> Intersects (* no quorums at all: vacuously true *)
  | s1 :: s2 :: _ ->
      (* Two disjoint SCCs each containing a quorum: their greatest
         quorums are disjoint witnesses, no search needed. *)
      Disjoint (D.to_set s1, D.to_set s2)
  | [ _ ] ->
      (* Any two disjoint quorums can be shrunk so one is minimal, so
         it suffices to test, per minimal quorum, whether its
         complement still contains a quorum. Enumeration runs to
         completion (filling the cache) at every [jobs] count, so the
         result — witness choice included — and the tick totals never
         depend on the degree of parallelism. *)
      verdict t (minimal_quorums ?jobs t)

let quorum_intersection ?metrics ?jobs sys =
  check_intersection ?jobs (prepare ?metrics sys)

(* The same question as one bit, decided instead of enumerated
   (Lachowski). Two disjoint quorums shrink to two disjoint minimal
   quorums, both inside the one quorum-bearing SCC [u] (two such SCCs
   answer at once), and the smaller has at most ⌊|u|/2⌋ members. No
   proper prefix of a minimal quorum on its walk path is a quorum, so
   the walk bounded there reaches it; testing each quorum selection
   [s] it reaches for a quorum in [u \ s] needs no minimality check,
   and the first hit ends the walk. The finite limit keeps [search]
   sequential at every [jobs] count. *)
let intersects ~jobs t =
  match quorum_sccs t with
  | [] -> true
  | _ :: _ :: _ -> false
  | [ u ] -> (
      let c = t.compiled in
      let outside s =
        not
          (D.is_empty (Quorum.Compiled.greatest_quorum_within_d c (D.diff u s)))
      in
      match
        search ~limit:1 ~jobs ~frontier:quorum_frontier_depth t.tally
          (quorum_walk c ~bound:(D.cardinal u / 2) ~accept:outside)
          [ (D.empty, D.elements u, u) ]
      with
      | [], _ -> true
      | _ :: _, _ -> false)

let quorum_intersection_despite ?metrics ?(jobs = 1) sys b =
  intersects ~jobs (prepare ?metrics (Quorum.delete sys b))

(* ---- minimal blocking sets -------------------------------------------- *)

type blocking = { sets : Pid.Set.t list; complete : bool }

(* Availability is judged on the original system (Mazières), so a set
   blocks the whole system iff it hits every quorum — equivalently
   every minimal quorum. Minimal blocking sets are then the minimal
   hitting sets of the minimal-quorum family, enumerated by branching
   on the members of an uncovered quorum with the usual
   "exclude-previous-branches" discipline (each hitting set is reached
   exactly once).

   The search runs on quorum-incidence bitsets: quorums are named by
   their index in the canonical minimal-quorum array, [hits.(v)] is the
   set of indices of the quorums that contain pid [v], and a node's
   uncovered quorums are a set of indices, so choosing [v] uncovers
   [D.diff uncovered hits.(v)]. *)

type incidence = {
  quorums : D.t array;
  sizes : int array;  (* [D.cardinal quorums.(k)] *)
  hits : D.t array;  (* pid -> indices of the quorums containing it *)
}

let incidence quorums =
  let bound =
    Array.fold_left
      (fun b q ->
        match D.max_elt_opt q with Some v -> max b (v + 1) | None -> b)
      0 quorums
  in
  let hits = Array.make bound [] in
  Array.iteri
    (fun k q -> D.iter (fun v -> hits.(v) <- k :: hits.(v)) q)
    quorums;
  {
    quorums;
    sizes = Array.map D.cardinal quorums;
    hits = Array.map D.of_list hits;
  }

(* Each member must be the sole hitter of some quorum, that is, hit a
   quorum outside [twice], the quorums hit by two or more members. *)
let bk_minimal inc chosen =
  let _, twice =
    D.fold
      (fun b (once, twice) ->
        let h = inc.hits.(b) in
        (D.union once h, D.union twice (D.inter once h)))
      chosen (D.empty, D.empty)
  in
  D.for_all (fun b -> not (D.subset inc.hits.(b) twice)) chosen

(* The usable members of the uncovered quorum with the fewest of them;
   the first such quorum wins ties (deterministic). *)
let bk_best inc uncovered excluded =
  let best = ref 0 and best_usable = ref max_int in
  D.iter
    (fun k ->
      let usable =
        inc.sizes.(k) - D.inter_cardinal inc.quorums.(k) excluded
      in
      if usable < !best_usable then begin
        best := k;
        best_usable := usable
      end)
    uncovered;
  D.diff inc.quorums.(!best) excluded

(* The minimal-hitting-set search. A node is (chosen pids, uncovered
   quorum indices, excluded pids). *)
let blocking_walk inc tl ~frontier ~emit (chosen, uncovered, excluded) =
  let deferred = ref [] in
  let rec go depth chosen uncovered excluded =
    if depth >= frontier then
      deferred := (chosen, uncovered, excluded) :: !deferred
    else begin
      tick_explored tl;
      if D.is_empty uncovered then begin
        if bk_minimal inc chosen then emit chosen
      end
      else
        let usable = bk_best inc uncovered excluded in
        if D.is_empty usable then tick_pruned tl
        else
          ignore
            (D.fold
               (fun v excluded ->
                 go (depth + 1) (D.add v chosen)
                   (D.diff uncovered inc.hits.(v))
                   excluded;
                 D.add v excluded)
               usable excluded)
    end
  in
  go 0 chosen uncovered excluded;
  List.rev !deferred

(* The hitting-set tree branches much wider than the quorum search
   (one child per usable member of the pivot quorum), so its frontier
   sits shallower. *)
let blocking_frontier_depth = 3

let minimal_blocking_sets ?limit ?(jobs = 1) t =
  let quorums =
    List.map D.of_set (minimal_quorums ~jobs t) |> Array.of_list
  in
  let n = Array.length quorums in
  if n = 0 then { sets = []; complete = true }
  else
    let sets, complete =
      search ?limit ~jobs ~frontier:blocking_frontier_depth t.tally
        (blocking_walk (incidence quorums))
        [ (D.empty, D.of_range 0 (n - 1), D.empty) ]
    in
    { sets; complete }

(* ---- minimal splitting sets -------------------------------------------- *)

(* Deletion is not monotone (deleting everything leaves a vacuously
   intersecting system), so splitting sets are found by exhaustive
   cardinality-ordered sweep over the candidate universe, with
   supersets of already-found splitting sets skipped: when candidates
   are visited in increasing size, a splitting set containing no
   smaller splitting set is inclusion-minimal, exactly. The universe
   defaults to the top tier — the sweep is exponential in its size, so
   [max_size] bounds the sweep for live-scale use. *)
let next_same_popcount c =
  let lo = c land -c in
  let ripple = c + lo in
  ripple lor (((c lxor ripple) lsr 2) / lo)

let minimal_splitting_sets ?metrics ?universe ?max_size ?(jobs = 1) t =
  let universe =
    match universe with Some u -> u | None -> top_tier ~jobs t
  in
  let elts = Array.of_list (Pid.Set.elements universe) in
  let n = Array.length elts in
  if n > 62 then
    invalid_arg "Enum.minimal_splitting_sets: universe larger than 62";
  let max_size = min (Option.value ~default:n max_size) n in
  let set_of_mask mask =
    let s = ref Pid.Set.empty in
    for i = 0 to n - 1 do
      if mask land (1 lsl i) <> 0 then s := Pid.Set.add elts.(i) !s
    done;
    !s
  in
  (* Candidate checks run on fresh analyzers with no metrics — a live
     registry is shared mutable state no parallel job may touch — and
     return their tallies, which [sink] absorbs into [metrics]; so the
     counters come out identical at every [jobs] count. *)
  let sink = new_tally ?metrics () in
  let sys = system t in
  let splits_checked b =
    let t' = prepare (Quorum.delete sys b) in
    (not (intersects ~jobs:1 t'), t'.tally)
  in
  let hit0, tl0 = splits_checked Pid.Set.empty in
  absorb sink tl0;
  if hit0 then [ Pid.Set.empty ]
  else begin
    let found_masks = ref [] and found = ref [] in
    let k = ref 1 in
    while !k <= max_size do
      (* A size-k mask can only be a superset of a strictly smaller
         found mask (an equal-size superset is equality, and each mask
         is visited once), so the whole cardinality layer filters
         against the previous layers' finds and its candidates are
         independent — they evaluate in parallel, with hits appended
         in ascending mask order. *)
      let candidates = ref [] in
      let mask = ref ((1 lsl !k) - 1) in
      let limit = 1 lsl n in
      while !mask < limit do
        let m = !mask in
        if not (List.exists (fun f -> m land f = f) !found_masks) then
          candidates := m :: !candidates;
        mask := next_same_popcount m
      done;
      List.iter
        (fun (m, hit, tl) ->
          absorb sink tl;
          if hit then begin
            found_masks := m :: !found_masks;
            found := set_of_mask m :: !found
          end)
        (Simkit.Exec.map ~jobs
           (fun m ->
             let hit, tl = splits_checked (set_of_mask m) in
             (m, hit, tl))
           (List.rev !candidates));
      incr k
    done;
    canonical !found
  end
