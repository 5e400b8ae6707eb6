(* Compiled compressed-sparse-row graphs.

   A [Digraph.t] is a persistent map of persistent sets — ideal for
   construction, painful for whole-graph analysis: every Tarjan frame
   pays a [Pid.Set.elements], every neighbour probe a [Pid.Map.find].
   This module compiles a graph once into dense int arrays (the same
   move [Fbqs.Quorum.Compiled] makes for quorum checks); the handle
   memoizes its SCC partition and condensation, and the caller that
   compiled it holds it while it asks its questions. A caller that
   already holds ascending int rows, as the [Fbqs.Enum] contraction
   does, compiles them with [of_rows] and builds no tree-set graph at
   all; [of_graph] feeds the same compiler a digraph's rows.

   Determinism contract: the dense index order is the ascending pid
   order and every adjacency row is sorted ascending, so the iterative
   Tarjan below visits vertices and successors in exactly the order the
   seed tree-set implementation does — component emission order,
   condensation ids, DAG successor lists and sink ids are all
   byte-identical to the seed algorithms (kept in [test/oracle]).
   Process ids are non-negative (DESIGN.md §8): compiling a graph that
   names a negative pid raises, exactly like the quorum kernel. *)

type scc_data = { comp_of : int array; n_comps : int }

type t = {
  n : int;
  pids : int array;  (** dense index -> pid, ascending *)
  inv : int array;  (** pid -> dense index, [-1] when absent *)
  succ_off : int array;  (** length [n + 1] *)
  succ_arr : int array;  (** rows sorted ascending *)
  pred_off : int array;
  pred_arr : int array;
  mutable scc : scc_data option;
  mutable comp_sets : Pid.Set.t array option;
  mutable comp_list : Pid.Set.t list option;
  mutable dag : (int list array * int list) option;
}

let n_vertices t = t.n
let pid_of t k = t.pids.(k)

let index_of t p =
  if p < 0 || p >= Array.length t.inv then None
  else
    let k = t.inv.(p) in
    if k < 0 then None else Some k

let succ_off t = t.succ_off
let succ_arr t = t.succ_arr
let pred_off t = t.pred_off
let pred_arr t = t.pred_arr

(* ---- compilation ----------------------------------------------------- *)

(* Every handle is compiled here: vertex [k] is [pids.(k)], strictly
   ascending, and its successors are [rows.(k)], strictly ascending.
   [length] and [iter] read a row in place, an int list for [of_rows]
   and a tree set for [of_graph], so no row is copied. [who] names the
   public entry point in the errors. One pass over the rows takes the
   out-degrees, the second fills the succ rows consecutively, and the
   pred side is transposed from the finished succ arrays. *)
let compile who ~length ~iter pids rows =
  let n = Array.length pids in
  (* Pids ascend, so a negative pid shows up first. *)
  if n > 0 && pids.(0) < 0 then invalid_arg (who ^ ": negative process id");
  for k = 1 to n - 1 do
    if pids.(k) <= pids.(k - 1) then
      invalid_arg (who ^ ": rows not strictly ascending")
  done;
  let bound = if n = 0 then 0 else pids.(n - 1) + 1 in
  let inv = Array.make bound (-1) in
  Array.iteri (fun k p -> inv.(p) <- k) pids;
  let succ_off = Array.make (n + 1) 0 in
  for v = 1 to n do
    succ_off.(v) <- succ_off.(v - 1) + length rows.(v - 1)
  done;
  let m = succ_off.(n) in
  let succ_arr = Array.make m 0 in
  let pred_off = Array.make (n + 1) 0 in
  let si = ref 0 and row_start = ref 0 in
  let add w =
    if w < 0 || w >= bound || inv.(w) < 0 then
      invalid_arg (who ^ ": successor is not a vertex");
    let d = inv.(w) in
    if !si > !row_start && d <= succ_arr.(!si - 1) then
      invalid_arg (who ^ ": rows not strictly ascending");
    succ_arr.(!si) <- d;
    incr si;
    pred_off.(d + 1) <- pred_off.(d + 1) + 1
  in
  Array.iter
    (fun row ->
      row_start := !si;
      iter add row)
    rows;
  for v = 1 to n do
    pred_off.(v) <- pred_off.(v) + pred_off.(v - 1)
  done;
  let pred_arr = Array.make m 0 in
  let pred_cur = Array.make (n + 1) 0 in
  Array.blit pred_off 0 pred_cur 0 n;
  (* Pred rows receive their entries as [u] ascends, so they come out
     sorted too. *)
  for u = 0 to n - 1 do
    for i = succ_off.(u) to succ_off.(u + 1) - 1 do
      let d = succ_arr.(i) in
      pred_arr.(pred_cur.(d)) <- u;
      pred_cur.(d) <- pred_cur.(d) + 1
    done
  done;
  {
    n;
    pids;
    inv;
    succ_off;
    succ_arr;
    pred_off;
    pred_arr;
    scc = None;
    comp_sets = None;
    comp_list = None;
    dag = None;
  }

let of_rows rows =
  compile "Csr.of_rows" ~length:List.length ~iter:List.iter
    (Array.of_list (List.map fst rows))
    (Array.of_list (List.map snd rows))

(* [iter_succs] is ascending and a successor set iterates ascending,
   so a digraph's rows are already in the order [compile] wants. *)
let of_graph g =
  let n = Digraph.n_vertices g in
  let pids = Array.make n 0 and rows = Array.make n Pid.Set.empty in
  let k = ref 0 in
  Digraph.iter_succs
    (fun v s ->
      pids.(!k) <- v;
      rows.(!k) <- s;
      incr k)
    g;
  compile "Csr.of_graph" ~length:Pid.Set.cardinal ~iter:Pid.Set.iter pids rows

let cache_stats () =
  { Core.Cache.hits = 0; misses = 0; evictions = 0; length = 0; capacity = 0 }

(* ---- strongly connected components ----------------------------------- *)

(* Iterative Tarjan over the int arrays: explicit frame stacks replace
   both the recursion and the per-frame successor lists of the seed, so
   a 50k-vertex graph costs zero allocation beyond the state arrays.
   Roots are taken in ascending dense order and successors in row order
   (ascending), matching the seed's visit order exactly — component ids
   below are the seed's emission order. *)
let compute_scc t =
  let n = t.n in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = Array.make n 0 in
  let sp = ref 0 in
  let frame_v = Array.make n 0 in
  let frame_i = Array.make n 0 in
  let fp = ref 0 in
  let counter = ref 0 in
  let comp_of = Array.make n (-1) in
  let n_comps = ref 0 in
  let push v =
    index.(v) <- !counter;
    lowlink.(v) <- !counter;
    incr counter;
    stack.(!sp) <- v;
    incr sp;
    on_stack.(v) <- true;
    frame_v.(!fp) <- v;
    frame_i.(!fp) <- t.succ_off.(v);
    incr fp
  in
  for root = 0 to n - 1 do
    if index.(root) < 0 then begin
      push root;
      while !fp > 0 do
        let f = !fp - 1 in
        let v = frame_v.(f) in
        let i = frame_i.(f) in
        if i < t.succ_off.(v + 1) then begin
          frame_i.(f) <- i + 1;
          let w = t.succ_arr.(i) in
          if index.(w) < 0 then push w
          else if on_stack.(w) && index.(w) < lowlink.(v) then
            lowlink.(v) <- index.(w)
        end
        else begin
          decr fp;
          if lowlink.(v) = index.(v) then begin
            let c = !n_comps in
            incr n_comps;
            let continue = ref true in
            while !continue do
              decr sp;
              let w = stack.(!sp) in
              on_stack.(w) <- false;
              comp_of.(w) <- c;
              if w = v then continue := false
            done
          end;
          if !fp > 0 then begin
            let p = frame_v.(!fp - 1) in
            if lowlink.(v) < lowlink.(p) then lowlink.(p) <- lowlink.(v)
          end
        end
      done
    end
  done;
  { comp_of; n_comps = !n_comps }

let scc_data t =
  match t.scc with
  | Some s -> s
  | None ->
      let s = compute_scc t in
      t.scc <- Some s;
      s

let scc_count t = (scc_data t).n_comps

let scc_component_sets t =
  match t.comp_sets with
  | Some sets -> sets
  | None ->
      let s = scc_data t in
      (* Collect each component as an ascending pid list (descending
         scan + cons), then let [Pid.Set.of_list] do a linear build
         instead of n rebalancing inserts. *)
      let lists = Array.make s.n_comps [] in
      for v = t.n - 1 downto 0 do
        let c = s.comp_of.(v) in
        lists.(c) <- t.pids.(v) :: lists.(c)
      done;
      let sets = Array.map Pid.Set.of_list lists in
      t.comp_sets <- Some sets;
      sets

let scc_components t =
  match t.comp_list with
  | Some l -> l
  | None ->
      let l = Array.to_list (scc_component_sets t) in
      t.comp_list <- Some l;
      l

let scc_component_of t p =
  match index_of t p with
  | None -> None
  | Some v -> Some (scc_data t).comp_of.(v)

(* ---- condensation DAG ------------------------------------------------ *)

(* Edges are scanned in ascending (tail, head) order — the order
   [Digraph.fold_edges] yields — and each DAG successor list records
   first encounters by consing, so the lists match the seed
   condensation element for element. *)
let compute_dag t =
  let s = scc_data t in
  let dag = Array.make s.n_comps [] in
  for u = 0 to t.n - 1 do
    let cu = s.comp_of.(u) in
    for i = t.succ_off.(u) to t.succ_off.(u + 1) - 1 do
      let cv = s.comp_of.(t.succ_arr.(i)) in
      if cu <> cv && not (List.mem cv dag.(cu)) then dag.(cu) <- cv :: dag.(cu)
    done
  done;
  let sinks = ref [] in
  for c = s.n_comps - 1 downto 0 do
    if dag.(c) = [] then sinks := c :: !sinks
  done;
  (dag, !sinks)

let dag_data t =
  match t.dag with
  | Some d -> d
  | None ->
      let d = compute_dag t in
      t.dag <- Some d;
      d

let dag_succs t = fst (dag_data t)
let dag_sinks t = snd (dag_data t)
