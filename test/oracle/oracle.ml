(* Reference implementations, kept with the tests: the seed's tree-set
   graph algorithms, its list-based Dinic, its tree-set Algorithm 1,
   its subset sweeps for the FBQS analyses, its generic event queue,
   its Set-backed consensus value, and the reachable broadcast and
   SINK knowledge rules that re-ran their whole search on every
   message. [lib/] holds one implementation per function, the fast one;
   the qcheck suites check it against these, and [bench micro] prices
   the gap. Each submodule names the [lib/] module whose functions it
   mirrors, and later submodules build on the earlier ones, as the
   seed's did. *)

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

(* Algorithm 1 and the v-blocking test verbatim on tree sets, off
   [Slice.has_slice_within] and [Slice.all_slices_intersect]: what the
   dense compiled kernel must match bit for bit. *)
module Quorum = struct
  let has_slice sys i q =
    Fbqs.Slice.has_slice_within (Fbqs.Quorum.slices_of sys i) q

  let is_quorum sys q =
    (not (Pid.Set.is_empty q)) && Pid.Set.for_all (fun i -> has_slice sys i q) q

  let rec greatest_quorum_within sys set =
    let next = Pid.Set.filter (fun i -> has_slice sys i set) set in
    if Pid.Set.equal next set then set else greatest_quorum_within sys next

  let is_v_blocking sys i b =
    match Fbqs.Quorum.slices_of sys i with
    | Fbqs.Slice.Explicit [] -> false
    | s when Fbqs.Slice.slice_count s = 0 -> false
    | s -> Fbqs.Slice.all_slices_intersect s b
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
      let compiled = Fbqs.Quorum.Compiled.compile deleted in
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
              not
                (Pid.Set.is_empty
                   (Fbqs.Quorum.Compiled.greatest_quorum_within compiled
                      (Pid.Set.diff parts (set_of_mask m))))
            then violated := true
          end;
          mask := next_same_popcount m
        done;
        incr k
      done;
      not !violated
    end
end

(* Subset sweeps over all participants ([<= 20]), and the tree-set
   v-blocking cascade. *)
module Analysis = struct
  let blocking_cascade sys ~down =
    let rec go halted =
      let next =
        Pid.Set.filter
          (fun i ->
            (not (Pid.Set.mem i halted)) && Quorum.is_v_blocking sys i halted)
          (Fbqs.Quorum.participants sys)
      in
      if Pid.Set.is_empty next then halted
      else go (Pid.Set.union halted next)
    in
    go down

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

(* The seed's Set-backed consensus value: the order and the set algebra
   [Scp.Value]'s ascending arrays must reproduce. *)
module Value = struct
  module S = Set.Make (Int)

  type t = S.t

  let of_ints = S.of_list
  let empty = S.empty
  let is_empty = S.is_empty
  let singleton = S.singleton
  let union = S.union
  let combine = List.fold_left S.union S.empty

  let compare a b =
    match Int.compare (S.cardinal a) (S.cardinal b) with
    | 0 -> S.compare a b
    | c -> c

  let equal = S.equal

  let pp ppf v =
    Format.fprintf ppf "{%a}"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
         Format.pp_print_int)
      (S.elements v)

  let to_list = S.elements
end

(* The reachable broadcast with an exhaustive delivery search: on every
   copy of a not-yet-delivered origin it sorts the stored paths and
   looks for f + 1 pairwise internally-disjoint ones among all of them.
   The arrival-by-arrival behaviour [Cup.Rbcast] must reproduce. *)
module Rbcast = struct
  module Msg = Cup.Msg

  type origin_state = {
    mutable paths : Pid.t list list;  (* validated relay paths, origin first *)
    mutable forwarded : int;
    mutable delivered : bool;
  }

  type t = {
    self : Pid.t;
    neighbors : Pid.Set.t;
    f : int;
    max_copies : int;
    states : (Pid.t, origin_state) Hashtbl.t;
    c_broadcasts : Obs.Metrics.counter option;
    c_relays : Obs.Metrics.counter option;
    c_deliveries : Obs.Metrics.counter option;
  }

  let create ~self ~neighbors ~f ?metrics () =
    let c name = Option.map (fun r -> Obs.Metrics.counter r name) metrics in
    {
      self;
      neighbors = Pid.Set.remove self neighbors;
      f;
      max_copies = 4 * (f + 1);
      states = Hashtbl.create 8;
      c_broadcasts = c "rbcast_broadcasts";
      c_relays = c "rbcast_relays";
      c_deliveries = c "rbcast_deliveries";
    }

  let bump = function Some c -> Obs.Metrics.incr c | None -> ()

  let state_for t origin =
    match Hashtbl.find_opt t.states origin with
    | Some s -> s
    | None ->
        let s = { paths = []; forwarded = 0; delivered = false } in
        Hashtbl.replace t.states origin s;
        s

  let broadcast t ~send =
    bump t.c_broadcasts;
    (* The origin trivially "delivers" its own broadcast. *)
    (state_for t t.self).delivered <- true;
    Pid.Set.iter
      (fun j -> send j (Msg.Get_sink { origin = t.self; path = [ t.self ] }))
      t.neighbors

  let rec no_dup = function
    | [] -> true
    | x :: rest -> (not (List.mem x rest)) && no_dup rest

  let valid_path t ~src ~origin path =
    match path with
    | [] -> false
    | first :: _ ->
        Pid.equal first origin
        && (match List.rev path with
           | last :: _ -> Pid.equal last src
           | [] -> false)
        && no_dup path
        && not (List.mem t.self path)

  (* Internal vertices of a path from the receiver's standpoint: every
     relayer after the origin. *)
  let internals = function [] -> [] | _origin :: rest -> rest

  let disjoint p q =
    not (List.exists (fun x -> List.mem x (internals q)) (internals p))

  (* Exact search for [needed] pairwise internally-disjoint paths. *)
  let rec pick chosen candidates needed =
    needed = 0
    ||
    match candidates with
    | [] -> false
    | p :: rest ->
        (List.for_all (disjoint p) chosen
        && pick (p :: chosen) rest (needed - 1))
        || pick chosen rest needed

  let delivery_rule t st ~src ~origin =
    Pid.equal src origin
    ||
    let by_length =
      List.sort
        (fun a b -> Int.compare (List.length a) (List.length b))
        st.paths
    in
    pick [] by_length (t.f + 1)

  let on_get_sink t ~send ~src ~origin ~path =
    if not (valid_path t ~src ~origin path) then None
    else begin
      let st = state_for t origin in
      if not (List.mem path st.paths) then begin
        st.paths <- path :: st.paths;
        (* Relay with ourselves appended, respecting the traffic cap. *)
        if st.forwarded < t.max_copies then begin
          st.forwarded <- st.forwarded + 1;
          bump t.c_relays;
          let extended = path @ [ t.self ] in
          Pid.Set.iter
            (fun j ->
              if (not (List.mem j path)) && not (Pid.equal j origin) then
                send j (Msg.Get_sink { origin; path = extended }))
            t.neighbors
        end
      end;
      if (not st.delivered) && delivery_rule t st ~src ~origin then begin
        st.delivered <- true;
        bump t.c_deliveries;
        Some origin
      end
      else None
    end
end

(* The SINK knowledge core with full recounts: each changed [Know]
   re-tallies every stored claim and re-compares every view against
   [known]. The sends, [known] and verdict [Cup.Knowledge] must
   reproduce. *)
module Knowledge = struct
  module Msg = Cup.Msg

  type t = {
    self : Pid.t;
    pd : Pid.Set.t;
    f : int;
    mutable known : Pid.Set.t;
    mutable subscribed : Pid.Set.t;  (* processes we sent Know_request to *)
    mutable subscribers : Pid.Set.t;  (* processes to notify on change *)
    mutable last_know : Pid.Set.t Pid.Map.t;  (* src -> its latest view *)
    mutable claims : Pid.Set.t Pid.Map.t;  (* claimant -> ids it vouched *)
    mutable sink : Pid.Set.t option;
  }

  let create ~self ~pd ~f =
    let pd = Pid.Set.remove self pd in
    {
      self;
      pd;
      f;
      known = Pid.Set.add self pd;
      subscribed = Pid.Set.empty;
      subscribers = Pid.Set.empty;
      last_know = Pid.Map.empty;
      claims = Pid.Map.empty;
      sink = None;
    }

  let known t = t.known
  let sink_result t = t.sink

  let refresh_sink t =
    match t.sink with
    | Some _ -> ()
    | None ->
        let agreeing =
          Pid.Set.fold
            (fun j acc ->
              if Pid.equal j t.self then acc + 1
              else
                match Pid.Map.find_opt j t.last_know with
                | Some view when Pid.Set.equal view t.known -> acc + 1
                | Some _ | None -> acc)
            t.known 0
        in
        (* The size guard keeps the rule meaningful: a genuine sink has at
           least 2f+1 correct members, so a converged sink member always
           passes it, while a non-sink process with a tiny vouched set
           (e.g. |known| = f+1) cannot self-certify on its echo alone. *)
        if
          Pid.Set.cardinal t.known >= (2 * t.f) + 1
          && agreeing >= Pid.Set.cardinal t.known - t.f
        then t.sink <- Some t.known

  (* Recompute [known] from first-hand knowledge plus ids vouched by
     f + 1 distinct known claimants; returns whether it grew. *)
  let refresh_known t =
    let votes = Hashtbl.create 16 in
    Pid.Map.iter
      (fun claimant ids ->
        if Pid.Set.mem claimant t.known then
          Pid.Set.iter
            (fun x ->
              if not (Pid.Set.mem x t.known) then
                Hashtbl.replace votes x
                  (1 + Option.value ~default:0 (Hashtbl.find_opt votes x)))
            ids)
      t.claims;
    let fresh =
      (* Order-insensitive D1 escape: the vote tally folds straight into
         [Pid.Set.add], so bucket order cannot leak into [known]. *)
      Hashtbl.fold
        (fun x c acc -> if c >= t.f + 1 then Pid.Set.add x acc else acc)
        votes Pid.Set.empty
    in
    if Pid.Set.is_empty fresh then false
    else begin
      t.known <- Pid.Set.union t.known fresh;
      true
    end

  let subscribe_new t ~send =
    let unsub = Pid.Set.diff (Pid.Set.remove t.self t.known) t.subscribed in
    Pid.Set.iter
      (fun j ->
        t.subscribed <- Pid.Set.add j t.subscribed;
        send j Msg.Know_request)
      unsub

  let notify_subscribers t ~send =
    Pid.Set.iter (fun j -> send j (Msg.Know t.known)) t.subscribers

  let start t ~send = subscribe_new t ~send

  let on_know_request t ~send ~src =
    if not (Pid.Set.mem src t.subscribers) then begin
      t.subscribers <- Pid.Set.add src t.subscribers;
      send src (Msg.Know t.known)
    end

  let rec stabilise t ~send =
    (* New claims may unlock new ids, which add claimants, and so on. *)
    if refresh_known t then begin
      subscribe_new t ~send;
      notify_subscribers t ~send;
      stabilise t ~send
    end

  let on_know t ~send ~src view =
    if Pid.Set.mem src t.known then begin
      (* Channels are not FIFO: a stale Know can arrive after a newer
         one. Correct processes' knowledge only grows, so keep the
         superset (for incomparable reports — only a Byzantine sender
         produces those — keep the larger). *)
      let monotone m =
        Pid.Map.update src
          (function
            | Some old
              when Pid.Set.cardinal old > Pid.Set.cardinal view
                   || Pid.Set.subset view old ->
                Some old
            | Some _ | None -> Some view)
          m
      in
      t.last_know <- monotone t.last_know;
      t.claims <- monotone t.claims;
      stabilise t ~send;
      refresh_sink t
    end
end
