(* Reference implementations, kept with the tests: the seed's tree-set
   graph algorithms, its list-based Dinic, its subset sweeps for the
   FBQS analyses and its generic event queue. [lib/] holds one
   implementation per function, the fast one; the qcheck suites check
   it against these, and [bench micro] prices the gap. Each submodule
   names the [lib/] module whose functions it mirrors, and later
   submodules build on the earlier ones, as the seed's did. *)

open Graphkit

(* Tarjan on tree sets: the order [Graphkit.Scc.components] must
   reproduce. *)
module Scc = struct
  (* Iterative Tarjan: an explicit stack mirrors the recursion so large
     graphs cannot overflow the OCaml stack. *)

  type state = {
    mutable index : int;
    indices : (Pid.t, int) Hashtbl.t;
    lowlinks : (Pid.t, int) Hashtbl.t;
    on_stack : (Pid.t, unit) Hashtbl.t;
    stack : Pid.t Stack.t;
    mutable sccs : Pid.Set.t list;
  }

  let components g =
    let st =
      {
        index = 0;
        indices = Hashtbl.create 64;
        lowlinks = Hashtbl.create 64;
        on_stack = Hashtbl.create 64;
        stack = Stack.create ();
        sccs = [];
      }
    in
    let visit root =
      (* Each frame is (vertex, remaining successors). *)
      let frames = Stack.create () in
      let push v =
        Hashtbl.replace st.indices v st.index;
        Hashtbl.replace st.lowlinks v st.index;
        st.index <- st.index + 1;
        Stack.push v st.stack;
        Hashtbl.replace st.on_stack v ();
        Stack.push (v, ref (Pid.Set.elements (Digraph.succs g v))) frames
      in
      push root;
      while not (Stack.is_empty frames) do
        let v, rest = Stack.top frames in
        match !rest with
        | w :: tl ->
            rest := tl;
            if not (Hashtbl.mem st.indices w) then push w
            else if Hashtbl.mem st.on_stack w then
              Hashtbl.replace st.lowlinks v
                (min (Hashtbl.find st.lowlinks v) (Hashtbl.find st.indices w))
        | [] ->
            (* The popped frame is [v]'s own — its fields live on in
               [v]/[rest]; only the stack slot is being retired. *)
            let (_ : Pid.t * Pid.t list ref) = Stack.pop frames in
            if Hashtbl.find st.lowlinks v = Hashtbl.find st.indices v then begin
              let rec collect acc =
                let w = Stack.pop st.stack in
                Hashtbl.remove st.on_stack w;
                let acc = Pid.Set.add w acc in
                if Pid.equal w v then acc else collect acc
              in
              st.sccs <- collect Pid.Set.empty :: st.sccs
            end;
            if not (Stack.is_empty frames) then begin
              let parent, _ = Stack.top frames in
              Hashtbl.replace st.lowlinks parent
                (min
                   (Hashtbl.find st.lowlinks parent)
                   (Hashtbl.find st.lowlinks v))
            end
      done
    in
    Pid.Set.iter
      (fun v -> if not (Hashtbl.mem st.indices v) then visit v)
      (Digraph.vertices g);
    List.rev st.sccs
end

(* Set-union frontier expansion. *)
module Traversal = struct
  let bfs_layers g src =
    if not (Digraph.mem_vertex src g) then []
    else
      let rec go seen frontier layers =
        if Pid.Set.is_empty frontier then List.rev layers
        else
          let next =
            Pid.Set.fold
              (fun i acc -> Pid.Set.union acc (Digraph.succs g i))
              frontier Pid.Set.empty
          in
          let next = Pid.Set.diff next seen in
          go (Pid.Set.union seen next) next
            (if Pid.Set.is_empty next then layers else next :: layers)
      in
      let start = Pid.Set.singleton src in
      go start start [ start ]

  let reachable g src =
    List.fold_left Pid.Set.union Pid.Set.empty (bfs_layers g src)

  let is_connected_undirected g =
    match Pid.Set.choose_opt (Digraph.vertices g) with
    | None -> true
    | Some v ->
        let u = Digraph.undirected g in
        Pid.Set.equal (reachable u v) (Digraph.vertices g)
end

(* Tree-set Tarjan plus a map-indexed DAG: the component ids, DAG
   successor lists and sink ids [Graphkit.Csr] must reproduce. *)
module Condensation = struct
  type t = {
    comps : Pid.Set.t array;
    index : int Pid.Map.t;
    dag : int list array;
  }

  let make g =
    let comps = Array.of_list (Scc.components g) in
    let index =
      Array.to_seqi comps
      |> Seq.fold_left
           (fun m (k, c) -> Pid.Set.fold (fun v m -> Pid.Map.add v k m) c m)
           Pid.Map.empty
    in
    let n = Array.length comps in
    let succ_sets = Array.make n [] in
    Digraph.fold_edges
      (fun i j () ->
        let ci = Pid.Map.find i index and cj = Pid.Map.find j index in
        if ci <> cj && not (List.mem cj succ_sets.(ci)) then
          succ_sets.(ci) <- cj :: succ_sets.(ci))
      g ();
    { comps; index; dag = succ_sets }

  let components t = t.comps
  let component_of t i = Pid.Map.find i t.index
  let dag_succs t k = t.dag.(k)

  let sinks t =
    let acc = ref [] in
    Array.iteri (fun k succs -> if succs = [] then acc := k :: !acc) t.dag;
    List.rev !acc

  let sink_components g =
    let t = make g in
    List.map (fun k -> t.comps.(k)) (sinks t)
end

(* A Hashtbl-interned node-split network over the production Dinic. *)
module Connectivity = struct
  let big = 1_000_000

  let node_disjoint_paths g src dst =
    if Pid.equal src dst then 0
    else if not (Digraph.mem_vertex src g && Digraph.mem_vertex dst g) then 0
    else begin
      let verts = Pid.Set.elements (Digraph.vertices g) in
      let id = Hashtbl.create (List.length verts) in
      List.iteri (fun k v -> Hashtbl.replace id v k) verts;
      let n = List.length verts in
      let v_in v = 2 * Hashtbl.find id v in
      let v_out v = (2 * Hashtbl.find id v) + 1 in
      let net =
        Graphkit.Flow.create ~n:(2 * n) ~source:(v_in src) ~sink:(v_out dst)
      in
      List.iter
        (fun v ->
          let cap = if Pid.equal v src || Pid.equal v dst then big else 1 in
          Graphkit.Flow.add_edge net (v_in v) (v_out v) cap)
        verts;
      Digraph.fold_edges
        (fun u v () -> Graphkit.Flow.add_edge net (v_out u) (v_in v) 1)
        g ();
      Graphkit.Flow.max_flow net
    end
end

(* Definition 6 through the seed algorithms above. *)
module Properties = struct
  let is_k_osr g k =
    Traversal.is_connected_undirected g
    &&
    match Condensation.sink_components g with
    | [ sink ] ->
        let sink_graph = Digraph.subgraph sink g in
        let sink_verts = Pid.Set.elements sink in
        (match sink_verts with
        | [] | [ _ ] -> true
        | _ ->
            List.for_all
              (fun i ->
                List.for_all
                  (fun j ->
                    Pid.equal i j
                    || Connectivity.node_disjoint_paths sink_graph i j >= k)
                  sink_verts)
              sink_verts)
        && Pid.Set.for_all
             (fun i ->
               Pid.Set.for_all
                 (fun j -> Connectivity.node_disjoint_paths g i j >= k)
                 sink)
             (Pid.Set.diff (Digraph.vertices g) sink)
    | _ -> false
end

(* List-based Dinic with append-ordered adjacency: the flow and
   residual cut [Graphkit.Flow] must reproduce. *)
module Flow = struct
  type edge = { dst : int; mutable cap : int; rev : int }

  type t = {
    n : int;
    source : int;
    sink : int;
    adj : edge list ref array;
    mutable level : int array;
    mutable iter : edge list array;
  }

  let create ~n ~source ~sink =
    {
      n;
      source;
      sink;
      adj = Array.init n (fun _ -> ref []);
      level = [||];
      iter = [||];
    }

  let add_edge net u v cap =
    let fwd_pos = List.length !(net.adj.(u)) in
    let bwd_pos = List.length !(net.adj.(v)) in
    net.adj.(u) := !(net.adj.(u)) @ [ { dst = v; cap; rev = bwd_pos } ];
    net.adj.(v) := !(net.adj.(v)) @ [ { dst = u; cap = 0; rev = fwd_pos } ]

  let edge_at net u k = List.nth !(net.adj.(u)) k

  let bfs net =
    let level = Array.make net.n (-1) in
    level.(net.source) <- 0;
    let q = Queue.create () in
    Queue.add net.source q;
    while not (Queue.is_empty q) do
      let u = Queue.pop q in
      List.iter
        (fun e ->
          if e.cap > 0 && level.(e.dst) < 0 then begin
            level.(e.dst) <- level.(u) + 1;
            Queue.add e.dst q
          end)
        !(net.adj.(u))
    done;
    net.level <- level;
    level.(net.sink) >= 0

  let rec dfs net u f =
    if u = net.sink then f
    else begin
      let result = ref 0 in
      let rec try_edges () =
        match net.iter.(u) with
        | [] -> ()
        | e :: rest ->
            if e.cap > 0 && net.level.(e.dst) = net.level.(u) + 1 then begin
              let d = dfs net e.dst (min f e.cap) in
              if d > 0 then begin
                e.cap <- e.cap - d;
                let back = edge_at net e.dst e.rev in
                back.cap <- back.cap + d;
                result := d
              end
              else begin
                net.iter.(u) <- rest;
                try_edges ()
              end
            end
            else begin
              net.iter.(u) <- rest;
              try_edges ()
            end
      in
      try_edges ();
      !result
    end

  let max_flow net =
    let flow = ref 0 in
    while bfs net do
      net.iter <- Array.map (fun l -> !l) net.adj;
      let rec push () =
        let f = dfs net net.source max_int in
        if f > 0 then begin
          flow := !flow + f;
          push ()
        end
      in
      push ()
    done;
    !flow

  let min_cut_side net =
    let side = Array.make net.n false in
    side.(net.source) <- true;
    let q = Queue.create () in
    Queue.add net.source q;
    while not (Queue.is_empty q) do
      let u = Queue.pop q in
      List.iter
        (fun e ->
          if e.cap > 0 && not side.(e.dst) then begin
            side.(e.dst) <- true;
            Queue.add e.dst q
          end)
        !(net.adj.(u))
    done;
    side
end

(* A Gosper sweep over the survivors. *)
module Dset = struct
  (* Gosper's hack: the next bitmask with the same popcount, in
     increasing numeric order. *)
  let next_same_popcount c =
    let lo = c land -c in
    let ripple = c + lo in
    ripple lor (((c lxor ripple) lsr 2) / lo)

  (* Intersection despite [b] fails iff the deleted system has two
     disjoint quorums, and any such pair can be shrunk to two disjoint
     {e minimal} quorums. So instead of enumerating all [2^n] subsets and
     testing every pair (the seed path — the [dset/is_dset n=10] outlier
     in BENCH_quorum.json), enumerate candidate sets by increasing
     cardinality with two prunings:

     - supersets of an already-found quorum are skipped by a constant-time
       mask test (they cannot be minimal);
     - once the smallest quorum size [kmin] is known, no minimal quorum
       larger than [n - kmin] can have a disjoint partner, so enumeration
       stops at that cardinality — for well-connected systems this exits
       almost immediately after the first quorum is found.

     Each minimal quorum [q] is checked on the spot: a disjoint partner
     exists iff the complement of [q] still contains a quorum. Guarded to
     20 survivors. *)
  let quorum_intersection_despite sys b =
    let deleted = Fbqs.Quorum.delete sys b in
    let parts = Fbqs.Quorum.participants deleted in
    let elts = Array.of_list (Pid.Set.elements parts) in
    let n = Array.length elts in
    if n > 20 then invalid_arg "Oracle.Dset: more than 20 participants";
    if n = 0 then true
    else begin
      let compiled = Fbqs.Quorum.compile deleted in
      let set_of_mask mask =
        let s = ref Pid.Set.empty in
        for i = 0 to n - 1 do
          if mask land (1 lsl i) <> 0 then s := Pid.Set.add elts.(i) !s
        done;
        !s
      in
      let minimal_masks = ref [] in
      let smallest_quorum = ref max_int in
      let violated = ref false in
      let k = ref 1 in
      while
        (not !violated)
        && !k <= n
        && (!smallest_quorum = max_int || !k <= n - !smallest_quorum)
      do
        let mask = ref ((1 lsl !k) - 1) in
        let limit = 1 lsl n in
        while (not !violated) && !mask < limit do
          let m = !mask in
          if
            (not (List.exists (fun q -> m land q = q) !minimal_masks))
            &&
            let s = set_of_mask m in
            Fbqs.Quorum.Compiled.is_quorum compiled s
          then begin
            minimal_masks := m :: !minimal_masks;
            if !smallest_quorum = max_int then smallest_quorum := !k;
            if
              Fbqs.Quorum.Compiled.contains_quorum compiled
                (Pid.Set.diff parts (set_of_mask m))
            then violated := true
          end;
          mask := next_same_popcount m
        done;
        incr k
      done;
      not !violated
    end
end

(* Subset sweeps over all participants ([<= 20]). *)
module Analysis = struct
  let subsets_by_size universe =
    let elts = Array.of_list (Pid.Set.elements universe) in
    let n = Array.length elts in
    if n > 20 then invalid_arg "Oracle.Analysis: more than 20 participants";
    let all =
      List.init (1 lsl n) (fun mask ->
          let s = ref Pid.Set.empty in
          for b = 0 to n - 1 do
            if mask land (1 lsl b) <> 0 then s := Pid.Set.add elts.(b) !s
          done;
          !s)
    in
    List.sort
      (fun a b -> Int.compare (Pid.Set.cardinal a) (Pid.Set.cardinal b))
      all

  let breaks_intersection sys b = not (Dset.quorum_intersection_despite sys b)

  let splitting_sets sys =
    let candidates =
      List.filter (breaks_intersection sys)
        (subsets_by_size (Fbqs.Quorum.participants sys))
    in
    List.filter
      (fun b ->
        not
          (List.exists
             (fun b' -> (not (Pid.Set.equal b b')) && Pid.Set.subset b' b)
             candidates))
      candidates

  let top_tier sys =
    List.fold_left Pid.Set.union Pid.Set.empty (Fbqs.Quorum.minimal_quorums sys)
end

(* A binary min-heap on [(time, seq)]: the generic queue the engine's
   flat [Simkit.Event_heap] replaced. *)
module Event_queue = struct
  type 'a entry = { time : int; seq : int; payload : 'a }

  type 'a t = {
    mutable data : 'a entry array;
    mutable size : int;
    mutable next_seq : int;
    mutable high_water : int;
  }

  let create () = { data = [||]; size = 0; next_seq = 0; high_water = 0 }
  let is_empty q = q.size = 0
  let length q = q.size

  let lt a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

  let swap q i j =
    let tmp = q.data.(i) in
    q.data.(i) <- q.data.(j);
    q.data.(j) <- tmp

  let rec sift_up q i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if lt q.data.(i) q.data.(parent) then begin
        swap q i parent;
        sift_up q parent
      end
    end

  let rec sift_down q i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let smallest = ref i in
    if l < q.size && lt q.data.(l) q.data.(!smallest) then smallest := l;
    if r < q.size && lt q.data.(r) q.data.(!smallest) then smallest := r;
    if !smallest <> i then begin
      swap q i !smallest;
      sift_down q !smallest
    end

  let push q ~time payload =
    let entry = { time; seq = q.next_seq; payload } in
    q.next_seq <- q.next_seq + 1;
    if q.size = Array.length q.data then begin
      let cap = max 16 (2 * Array.length q.data) in
      let data = Array.make cap entry in
      Array.blit q.data 0 data 0 q.size;
      q.data <- data
    end;
    q.data.(q.size) <- entry;
    q.size <- q.size + 1;
    if q.size > q.high_water then q.high_water <- q.size;
    sift_up q (q.size - 1)

  let pop q =
    if q.size = 0 then None
    else begin
      let top = q.data.(0) in
      q.size <- q.size - 1;
      if q.size > 0 then begin
        q.data.(0) <- q.data.(q.size);
        sift_down q 0
      end;
      Some (top.time, top.payload)
    end

  let peek_time q = if q.size = 0 then None else Some q.data.(0).time
  let high_water q = q.high_water
end
