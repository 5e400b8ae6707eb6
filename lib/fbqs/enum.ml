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

   The walk emits every quorum selection it reaches. It reaches every
   minimal quorum, and a selection it reaches that is not minimal holds
   a minimal one, so one subset filter over its finds keeps exactly the
   minimal quorums ([Walks.minimal] below); no fixpoint runs per member
   of a find. A question that wants only intersection's yes or no runs
   the same walk bounded at half the quorum-bearing SCC and stops at
   its first hit ([intersects] below). Every search sorts and filters
   its finds in its kernel's own sets and builds a [Pid.Set.t] only for
   the sets it returns. *)

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
  parts : D.t;
  tally : tally;
  mutable sccs : D.t list option;  (* memo of [quorum_sccs] *)
  mutable views : (D.t * Quorum.Compiled.words) list;  (* memo of [on_kernel] *)
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
    parts = Quorum.Compiled.participants_d compiled;
    tally = new_tally ?metrics ();
    sccs = None;
    views = [];
    minimal = None;
  }

let prepare ?metrics sys = of_compiled ?metrics (Quorum.Compiled.compile sys)

let participants t = D.to_set t.parts

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

(* By cardinal, then by [compare]. Each set's cardinal is taken once,
   not at every comparison. *)
let sort_canonical cardinal compare sets =
  List.map (fun s -> (cardinal s, s)) sets
  |> List.sort (fun (m, a) (n, b) ->
         match Int.compare m n with 0 -> compare a b | c -> c)
  |> List.map snd

let canonical = sort_canonical Pid.Set.cardinal Pid.Set.compare

(* ---- one walk per search, at any jobs count ---------------------------- *)

(* Each search below is written once, as a walk: [walk tally ~frontier
   ~emit node] visits the search tree below [node], ticking [tally] and
   passing every find to [emit], except that calls reaching depth
   [frontier] are returned, in visiting order, instead of descended.

   [run] runs a walk at any [jobs] count. At [jobs = 1] it walks the
   root to the bottom on the analyzer's own tally. At [jobs > 1] it
   walks it down to [frontier] the same way, then runs each deferred
   call as a {!Simkit.Exec.map} job: the same walk, to the bottom, on a
   fresh tally with no counters (a live registry is shared mutable
   state no job may touch), folded back by [absorb]. Subtrees are
   independent and the caller sorts the merged finds into a canonical
   order, so results, [stats] and metrics are byte-identical at every
   [jobs] count. Nodes are words or dense sets, and a job captures only
   the walk's view (a word view, or the compiled system and its SCC)
   or quorum-incidence arrays (plain data), so jobs survive the fork
   backend's closure [Marshal] unchanged. All are immutable: a walk
   that needs scratch space makes its own, so jobs share no mutable
   state.

   A finite [limit] stops the walk at the [limit]-th find and keeps the
   sequential path: which finds survive a truncation depends on
   discovery order, which sharding does not preserve. *)

exception Stop

(* One deferred call, walked to the bottom: the body of every job. *)
let finish walk node =
  let tl = new_tally () and found = ref [] in
  ignore (walk tl ~frontier:max_int ~emit:(fun x -> found := x :: !found) node);
  (!found, tl)

let run ?(limit = max_int) ~jobs ~frontier tl walk root =
  let found = ref [] and count = ref 0 in
  let emit x =
    found := x :: !found;
    incr count;
    if !count >= limit then raise Stop
  in
  let complete =
    if jobs > 1 && limit = max_int then begin
      List.iter
        (fun (sets, job) ->
          found := List.rev_append sets !found;
          absorb tl job)
        (Simkit.Exec.map ~jobs (finish walk) (walk tl ~frontier ~emit root));
      true
    end
    else
      match walk tl ~frontier:max_int ~emit root with
      | (_ : _ list) -> true
      | exception Stop -> false
  in
  (!found, complete)

(* ---- the kernels ------------------------------------------------------- *)

(* Every search walks sets of pids inside one member set [u]: a
   quorum-bearing SCC for the quorum walks, the top tier or the SCC
   holding it for the hitting-set walk. A [KERNEL] is one representation of such sets,
   with the two quorum queries on it: [Word] holds a set in one machine
   word of a {!Quorum.Compiled.words} view of [u] (at most 62 members),
   [Dense] in a dense bitset. Both enumerate members in ascending pid
   order, so each walk below, written once, visits the same tree, ticks
   the same counts and finds the same sets on either; the word instance
   allocates nothing per node. [compare] orders two sets of equal
   cardinal as {!Pid.Set.compare} does, so a search sorts its finds
   into the canonical order before it converts them. *)
module type KERNEL = sig
  type view
  type set
  type elt

  val universe : view -> set
  val empty : set
  val is_empty : set -> bool
  val cardinal : set -> int
  val compare : set -> set -> int
  val lowest : set -> elt

  val index : elt -> int
  (** A non-negative number per member of the view, for tables indexed
      by member: its bit on words, its pid on dense sets. *)

  val add : elt -> set -> set
  val remove : elt -> set -> set
  val inter : set -> set -> set
  val diff : set -> set -> set
  val subset : set -> set -> bool
  val inter_cardinal : set -> set -> int
  val is_quorum : view -> set -> bool

  val keeping : view -> keep:set -> set -> set
  (** The greatest quorum within the set when it contains [keep];
      otherwise a set that misses a member of [keep]. *)

  val of_set : view -> Pid.Set.t -> set
  val to_set : view -> set -> Pid.Set.t
end

(* Trailing zeros of a one-bit word. *)
let ntz b = D.popcount (b - 1)

module Word = struct
  module C = Quorum.Compiled

  type view = C.words
  type set = int
  type elt = int (* a one-bit word *)

  let universe = C.universe_w
  let empty = 0
  let is_empty s = s = 0
  let cardinal = D.popcount
  let compare = D.compare_word
  let lowest s = s land -s
  let index = ntz
  let add b s = s lor b
  let remove b s = s land lnot b
  let inter a b = a land b
  let diff a b = a land lnot b
  let subset a b = a land lnot b = 0
  let inter_cardinal a b = D.popcount (a land b)
  let is_quorum = C.is_quorum_w

  (* [-1] is the prune, and [keep] is non-empty there. *)
  let keeping w ~keep s =
    let g = C.greatest_quorum_keeping_w w ~keep s in
    if g < 0 then 0 else g

  let of_set = C.word_of_set
  let to_set = C.set_of_word
end

module Dense = struct
  type view = { c : Quorum.Compiled.t; u : D.t }
  type set = D.t
  type elt = int

  let universe v = v.u
  let empty = D.empty
  let is_empty = D.is_empty
  let cardinal = D.cardinal
  let compare = D.compare
  let lowest s = Option.get (D.min_elt_opt s)
  let index i = i
  let add = D.add
  let remove = D.remove
  let inter = D.inter
  let diff = D.diff
  let subset = D.subset
  let inter_cardinal = D.inter_cardinal
  let is_quorum v s = Quorum.Compiled.is_quorum_d v.c s

  let keeping v ~keep s =
    match Quorum.Compiled.greatest_quorum_keeping_d v.c ~keep s with
    | Some g -> g
    | None -> D.empty

  let of_set _ s = D.of_set s
  let to_set _ s = D.to_set s
end

(* ---- quorum-index rows ------------------------------------------------- *)

(* The hitting-set walk names the minimal quorums by their index in
   canonical order. A row is a set of such indices as a fixed-width
   word array (bit [k mod row_bits] of word [k / row_bits] for index
   [k]), every row of one search as wide as its quorum count needs, so
   a walk's scratch rows fit every row it meets, deferred nodes' rows
   included. *)
let row_bits = Sys.int_size

let full_row n =
  let r = Array.make ((n + row_bits - 1) / row_bits) 0 in
  for k = 0 to n - 1 do
    r.(k / row_bits) <- r.(k / row_bits) lor (1 lsl (k mod row_bits))
  done;
  r

let row_is_empty r =
  let w = ref 0 in
  while !w < Array.length r && r.(!w) = 0 do
    incr w
  done;
  !w = Array.length r

let row_diff a b =
  let r = Array.make (Array.length a) 0 in
  for w = 0 to Array.length a - 1 do
    r.(w) <- a.(w) land lnot b.(w)
  done;
  r

(* The quorum tree is deep and narrow ("pid in / pid out"), so its
   frontier sits five decisions down. The hitting-set tree branches
   much wider (one child per usable member of the pivot quorum), so its
   frontier sits shallower. *)
let quorum_frontier_depth = 5
let blocking_frontier_depth = 3

(* What a quorum selection must pass to be emitted: nothing, for the
   enumeration, whose caller keeps the minimal ones; or a quorum in its
   complement, for the intersection decision. *)
type hook = Reached | Outside

module Walks (K : KERNEL) = struct
  let canonical = sort_canonical K.cardinal K.compare

  let search ?limit ~jobs ~frontier tl walk root =
    let found, complete = run ?limit ~jobs ~frontier tl walk root in
    (canonical found, complete)

  (* ---- the quorum walk ---- *)

  let outside v s =
    not (K.is_empty (K.keeping v ~keep:K.empty (K.diff (K.universe v) s)))

  (* Depth-first walk over the quorums inside a universe already
     contracted to a greatest quorum. A node is (selection, remaining
     candidates, available pool). Candidates branch in ascending pid
     order, so the emission order — and with it every downstream
     report — is deterministic. A selection that is a quorum ends its
     branch (its supersets are quorums too) and is emitted when it
     passes [hook]; a selection of [bound] members that is not a
     quorum ends it too. Enumeration passes [max_int] and [Reached];
     the intersection decision below passes half the universe and
     [Outside]. *)
  let walk v ~bound ~hook tl ~frontier ~emit (selection, remaining, available)
      =
    let deferred = ref [] in
    let rec go depth size selection remaining available =
      if depth >= frontier then
        deferred := (selection, remaining, available) :: !deferred
      else begin
        tick_explored tl;
        if K.is_quorum v selection then begin
          match hook with
          | Reached -> emit selection
          | Outside ->
              if outside v selection then begin
                tick_found tl;
                emit selection
              end
        end
        else if size < bound && not (K.is_empty remaining) then begin
          let x = K.lowest remaining in
          let rest = K.remove x remaining in
          go (depth + 1) (size + 1) (K.add x selection) rest available;
          let g = K.keeping v ~keep:selection (K.remove x available) in
          if K.subset selection g then
            go (depth + 1) size selection (K.inter rest g) g
          else tick_pruned tl
        end
      end
    in
    go 0 (K.cardinal selection) selection remaining available;
    List.rev !deferred

  let quorum_search ?limit ~jobs tl v ~bound ~hook =
    let u = K.universe v in
    search ?limit ~jobs ~frontier:quorum_frontier_depth tl
      (walk v ~bound ~hook) (K.empty, u, u)

  (* The sets of [sorted], which is in canonical order, that hold none
     of the others. A proper subset has fewer members, so it comes
     first, and each set is tested against the kept ones of smaller
     cardinal only: a set that holds a dropped one holds that set's
     kept subset too. *)
  let minimal sorted =
    let kept = Array.make (List.length sorted) K.empty in
    let sizes = Array.make (Array.length kept) 0 and n = ref 0 in
    List.iter
      (fun s ->
        let c = K.cardinal s in
        let i = ref 0 in
        while !i < !n && sizes.(!i) < c && not (K.subset kept.(!i) s) do
          incr i
        done;
        if !i = !n || sizes.(!i) >= c then begin
          kept.(!n) <- s;
          sizes.(!n) <- c;
          incr n
        end)
      sorted;
    Array.to_list (Array.sub kept 0 !n)

  (* The walk reaches every minimal quorum of [u] (DESIGN §13), and
     every quorum selection it reaches holds one, so the reached
     selections holding no other reached one are exactly the minimal
     quorums. [found] counts them. *)
  let minimal_quorums ~jobs tl v =
    let reached, _ = quorum_search ~jobs tl v ~bound:max_int ~hook:Reached in
    let kept = minimal reached in
    List.iter (fun _ -> tick_found tl) kept;
    List.map (K.to_set v) kept

  (* Whether the walk bounded at half the universe finds a quorum
     selection with a quorum in its complement (see [intersects]). *)
  let disjoint_quorums ~jobs tl v =
    match
      quorum_search ~limit:1 ~jobs tl v
        ~bound:(K.cardinal (K.universe v) / 2)
        ~hook:Outside
    with
    | [], _ -> false
    | _ :: _, _ -> true

  (* ---- the hitting-set walk ---- *)

  (* The minimal quorums as sets of the view, their sizes, and per
     member index the row of the quorums that contain it. An index no
     quorum holds keeps an empty array, which the walk never reads: on
     the dense view an index is a pid, and the tier's pids may be
     sparse. *)
  type incidence = {
    quorums : K.set array;
    sizes : int array;
    hits : int array array;
    width : int;  (* words per row *)
  }

  let incidence v quorums =
    let quorums = Array.of_list (List.map (K.of_set v) quorums) in
    let n = Array.length quorums in
    let rec members s acc =
      if K.is_empty s then acc
      else
        let x = K.lowest s in
        members (K.remove x s) (K.index x :: acc)
    in
    let of_quorum = Array.map (fun q -> members q []) quorums in
    let bound =
      Array.fold_left (List.fold_left (fun b i -> max b (i + 1))) 0 of_quorum
    in
    let width = (n + row_bits - 1) / row_bits in
    let hits = Array.make bound [||] in
    Array.iteri
      (fun k ->
        List.iter (fun i ->
            if Array.length hits.(i) = 0 then hits.(i) <- Array.make width 0;
            let h = hits.(i) in
            h.(k / row_bits) <- h.(k / row_bits) lor (1 lsl (k mod row_bits))))
      of_quorum;
    { quorums; sizes = Array.map K.cardinal quorums; hits; width }

  (* The usable members of the uncovered quorum with the fewest of them;
     the first such quorum wins ties (deterministic). *)
  let best inc uncovered excluded =
    let best = ref 0 and best_usable = ref max_int in
    for w = 0 to inc.width - 1 do
      let x = ref uncovered.(w) in
      while !x <> 0 do
        let b = !x land - !x in
        let k = (w * row_bits) + ntz b in
        let usable =
          inc.sizes.(k) - K.inter_cardinal inc.quorums.(k) excluded
        in
        if usable < !best_usable then begin
          best := k;
          best_usable := usable
        end;
        x := !x lxor b
      done
    done;
    K.diff inc.quorums.(!best) excluded

  (* Each member must be the sole hitter of some quorum, that is, hit a
     quorum outside [twice], the quorums hit by two or more members.
     [once] and [twice] are the walk's scratch rows. *)
  let sole_hitters inc ~once ~twice chosen =
    Array.fill once 0 inc.width 0;
    Array.fill twice 0 inc.width 0;
    let s = ref chosen in
    while not (K.is_empty !s) do
      let x = K.lowest !s in
      let h = inc.hits.(K.index x) in
      for w = 0 to inc.width - 1 do
        twice.(w) <- twice.(w) lor (once.(w) land h.(w));
        once.(w) <- once.(w) lor h.(w)
      done;
      s := K.remove x !s
    done;
    let s = ref chosen and sole = ref true in
    while !sole && not (K.is_empty !s) do
      let x = K.lowest !s in
      let h = inc.hits.(K.index x) in
      let w = ref 0 in
      while !w < inc.width && h.(!w) land lnot twice.(!w) = 0 do
        incr w
      done;
      sole := !w < inc.width;
      s := K.remove x !s
    done;
    !sole

  (* The minimal-hitting-set search. A node is (chosen pids, uncovered
     quorum indices, excluded pids); a node branches on each usable
     member of [best]'s quorum in ascending order, excluding it from
     the branches after it, so each hitting set is reached once. *)
  let blocking_walk inc tl ~frontier ~emit (chosen, uncovered, excluded) =
    let once = Array.make inc.width 0 and twice = Array.make inc.width 0 in
    let deferred = ref [] in
    let rec go depth chosen uncovered excluded =
      if depth >= frontier then
        deferred := (chosen, uncovered, excluded) :: !deferred
      else begin
        tick_explored tl;
        if row_is_empty uncovered then begin
          if sole_hitters inc ~once ~twice chosen then emit chosen
        end
        else
          let usable = best inc uncovered excluded in
          if K.is_empty usable then tick_pruned tl
          else branch depth chosen uncovered excluded usable
      end
    and branch depth chosen uncovered excluded usable =
      let v = K.lowest usable in
      go (depth + 1) (K.add v chosen)
        (row_diff uncovered inc.hits.(K.index v))
        excluded;
      let usable = K.remove v usable in
      if not (K.is_empty usable) then
        branch depth chosen uncovered (K.add v excluded) usable
    in
    go 0 chosen uncovered excluded;
    List.rev !deferred

  let blocking ?limit ~jobs tl v quorums =
    let sets, complete =
      search ?limit ~jobs ~frontier:blocking_frontier_depth tl
        (blocking_walk (incidence v quorums))
        (K.empty, full_row (List.length quorums), K.empty)
    in
    (List.map (K.to_set v) sets, complete)
end

module Word_walks = Walks (Word)
module Dense_walks = Walks (Dense)

(* The word instance whenever [u] fits in a word, the dense one past
   that. An analyzer builds the word view of a universe once, since
   building it scans every member's slices: the blocking walk reuses
   the view its quorum search built. *)
let on_kernel t u ~word ~dense =
  if D.cardinal u > Quorum.Compiled.word_bits then
    dense { Dense.c = t.compiled; u }
  else
    match List.find_opt (fun (v, _) -> D.equal u v) t.views with
    | Some (_, w) -> word w
    | None ->
        let w = Quorum.Compiled.words t.compiled u in
        t.views <- (u, w) :: t.views;
        word w

(* The SCCs of the trust graph restricted to the greatest quorum, kept
   only when they contain a quorum — the contraction step. Returns
   each component already shrunk to its own greatest quorum. Row [i]
   is [domain_d i ∩ W], ascending and inside [W], so the rows compile
   straight into a CSR handle with [Csr.of_rows]: no tree-set graph is
   built. *)
let contract c parts =
  let w = Quorum.Compiled.greatest_quorum_within_d c parts in
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

(* One search per quorum-bearing SCC; every minimal quorum lies in
   exactly one, so their finds merge through {!canonical}. *)
let minimal_quorums ?(jobs = 1) t =
  match t.minimal with
  | Some q -> q
  | None ->
      let per_scc u =
        on_kernel t u
          ~word:(Word_walks.minimal_quorums ~jobs t.tally)
          ~dense:(Dense_walks.minimal_quorums ~jobs t.tally)
      in
      let result =
        match List.map per_scc (quorum_sccs t) with
        | [ found ] -> found
        | found -> canonical (List.concat found)
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
  let parts = t.parts in
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
   and the first hit ends the walk. The finite limit keeps the search
   sequential at every [jobs] count. *)
let intersects ~jobs t =
  match quorum_sccs t with
  | [] -> true
  | _ :: _ :: _ -> false
  | [ u ] ->
      not
        (on_kernel t u
           ~word:(Word_walks.disjoint_quorums ~jobs t.tally)
           ~dense:(Dense_walks.disjoint_quorums ~jobs t.tally))

let intersects_despite ?metrics ?(jobs = 1) c b =
  intersects ~jobs (of_compiled ?metrics (Quorum.Compiled.delete c b))

let quorum_intersection_despite ?metrics ?jobs sys b =
  intersects_despite ?metrics ?jobs (Quorum.Compiled.compile sys) b

(* ---- minimal blocking sets -------------------------------------------- *)

type blocking = { sets : Pid.Set.t list; complete : bool }

(* Availability is judged on the original system (Mazières), so a set
   blocks the whole system iff it hits every quorum — equivalently
   every minimal quorum. Minimal blocking sets are then the minimal
   hitting sets of the minimal-quorum family, enumerated by branching
   on the members of an uncovered quorum with the usual
   "exclude-previous-branches" discipline (each hitting set is reached
   exactly once). Every member of a minimal hitting set lies in a
   minimal quorum, so the walk runs on the kernel of the top tier; or,
   with one quorum-bearing SCC that fits in a word, on that SCC's,
   which holds every minimal quorum and whose view the quorum search
   built. *)
let minimal_blocking_sets ?limit ?(jobs = 1) t =
  match minimal_quorums ~jobs t with
  | [] -> { sets = []; complete = true }
  | quorums ->
      let u =
        match quorum_sccs t with
        | [ u ] when D.cardinal u <= Quorum.Compiled.word_bits -> u
        | _ -> D.of_set (top_tier ~jobs t)
      in
      let sets, complete =
        on_kernel t u
          ~word:(fun v -> Word_walks.blocking ?limit ~jobs t.tally v quorums)
          ~dense:(fun v -> Dense_walks.blocking ?limit ~jobs t.tally v quorums)
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
  let splits_checked b =
    let t' = of_compiled (Quorum.Compiled.delete t.compiled b) in
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
      (* The sweep ends at the first mask past the universe's [n] bits.
         At [n = 62] that is the sign bit, so the bound is a bit test:
         [1 lsl 62] is [min_int], below every mask. *)
      let outside = lnot ((1 lsl n) - 1) in
      while !mask land outside = 0 do
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
