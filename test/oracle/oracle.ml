(* Reference implementations, kept with the tests: the seed's tree-set
   graph algorithms, its list-based Dinic, its tree-set Algorithm 1,
   its subset sweeps for the FBQS analyses, its generic event queue,
   its Set-backed consensus value, the reachable broadcast and SINK
   knowledge rules that re-ran their whole search on every message,
   and the SCP node that re-checked every tallied statement after
   every fresh envelope. [lib/] holds one implementation per function,
   the fast one; the qcheck suites check it against these, and [bench
   micro] prices the gap. Each submodule names the [lib/] module whose functions it
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

  (* Mazières' delete operation on the tree-set system: remove the
     nodes of [b] from the system and from every remaining slice; the
     reference for [Fbqs.Quorum.Compiled.delete]. *)
  let delete sys b =
    Pid.Map.filter_map
      (fun i slices ->
        if Pid.Set.mem i b then None
        else
          Some
            (match slices with
            | Fbqs.Slice.Explicit l ->
                Fbqs.Slice.explicit (List.map (fun s -> Pid.Set.diff s b) l)
            | Fbqs.Slice.Threshold { members; threshold } ->
                (* Deleting [b] from "all t-subsets of members" yields
                   the set {s \ b}, whose weakest elements are the
                   (t - |members ∩ b|)-subsets of the survivors; both
                   has_slice_within and all_slices_intersect depend
                   only on those, so the result is exactly a threshold
                   slice over the survivors with the reduced
                   threshold. *)
                let hit = Pid.Set.cardinal (Pid.Set.inter members b) in
                Fbqs.Slice.threshold
                  ~members:(Pid.Set.diff members b)
                  ~threshold:(max 0 (threshold - hit))))
      sys
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
    let deleted = Quorum.delete sys b in
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

(* Federated voting without dirty flags: [Scp.Fvoting] before it
   learned which statements an envelope could have moved. *)
module Fvoting = struct
  module D = Pid.Dense_set
  module Compiled = Fbqs.Quorum.Compiled
  module Statement = Scp.Statement

  type tally = {
    mutable voters : D.t;
    mutable acceptors : D.t;
    mutable i_voted : bool;
    mutable i_accepted : bool;
    mutable i_confirmed : bool;
  }

  type t = {
    self : Pid.t;
    keep : D.t;
    system : unit -> Fbqs.Quorum.system;
    mutable view : (Fbqs.Quorum.system * Compiled.t) option;
    mutable tallies : tally Statement.Map.t;
    c_quorum_checks : Obs.Metrics.counter option;
    c_vblocking_checks : Obs.Metrics.counter option;
    c_view_hits : Obs.Metrics.counter option;
    c_view_misses : Obs.Metrics.counter option;
  }

  let empty_tally () =
    {
      voters = D.empty;
      acceptors = D.empty;
      i_voted = false;
      i_accepted = false;
      i_confirmed = false;
    }

  let create ?metrics ~self ~system () =
    let c name = Option.map (fun r -> Obs.Metrics.counter r name) metrics in
    {
      self;
      keep = D.singleton self;
      system;
      view = None;
      tallies = Statement.Map.empty;
      c_quorum_checks = c "scp_quorum_checks";
      c_vblocking_checks = c "scp_vblocking_checks";
      c_view_hits = c "fbqs_cache_hits";
      c_view_misses = c "fbqs_cache_misses";
    }

  let tally t stmt =
    match Statement.Map.find_opt stmt t.tallies with
    | Some tl -> tl
    | None -> empty_tally ()

  let live t stmt =
    match Statement.Map.find_opt stmt t.tallies with
    | Some tl -> tl
    | None ->
        let tl = empty_tally () in
        t.tallies <- Statement.Map.add stmt tl t.tallies;
        tl

  let rec record_vote t stmt src =
    let tl = live t stmt in
    tl.voters <- D.add src tl.voters;
    List.iter (fun s -> record_vote t s src) (Statement.implied stmt)

  let rec record_accept t stmt src =
    let tl = live t stmt in
    tl.voters <- D.add src tl.voters;
    tl.acceptors <- D.add src tl.acceptors;
    List.iter (fun s -> record_accept t s src) (Statement.implied stmt)

  let set_voted t stmt = (live t stmt).i_voted <- true
  let mark_accepted t stmt = (live t stmt).i_accepted <- true
  let mark_confirmed t stmt = (live t stmt).i_confirmed <- true
  let bump = function Some c -> Obs.Metrics.incr c | None -> ()

  let view t ~hits ~misses =
    let sys = t.system () in
    match t.view with
    | Some (seen, c) when seen == sys ->
        bump hits;
        c
    | Some _ | None ->
        bump misses;
        let c = Compiled.compile sys in
        t.view <- Some (sys, c);
        c

  let quorum_within t s =
    bump t.c_quorum_checks;
    let c = view t ~hits:t.c_view_hits ~misses:t.c_view_misses in
    D.mem t.self s
    && Option.is_some (Compiled.greatest_quorum_keeping_d c ~keep:t.keep s)

  let v_blocking t b =
    bump t.c_vblocking_checks;
    Compiled.is_v_blocking_d (view t ~hits:None ~misses:None) t.self b

  let iter f t = Statement.Map.iter f t.tallies
  let fold f t acc = Statement.Map.fold f t.tallies acc
  let exists f t = Statement.Map.exists f t.tallies
  let for_all f t = Statement.Map.for_all f t.tallies
end

(* The honest SCP node whose [progress] re-checks every tallied
   statement after every fresh envelope, deduplicating envelopes in an
   ordered set: the transitions and sends [Scp.Node.behavior] must
   reproduce. The Byzantine behaviours are [Scp.Node]'s own. *)
module Node = struct
  open Simkit
  module Value = Scp.Value
  module Ballot = Scp.Ballot
  module Statement = Scp.Statement
  module Msg = Scp.Msg

  module Seen = Set.Make (struct
    type t = Msg.t

    let compare = Msg.compare
  end)

  type node_obs = {
    trace : Obs.Trace.sink option;
    c_votes : Obs.Metrics.counter option;
    c_accepts : Obs.Metrics.counter option;
    c_confirms : Obs.Metrics.counter option;
    c_ballots : Obs.Metrics.counter option;
    c_nom_rounds : Obs.Metrics.counter option;
    c_decides : Obs.Metrics.counter option;
  }

  type state = {
    cfg : Scp.Node.config;
    obs : node_obs;
    fv : Fvoting.t;
    known_slices : Fbqs.Quorum.system ref;
    mutable peers : Pid.Set.t;
    mutable seen : Seen.t;
    mutable sent : Msg.t list;
    mutable candidates : Value.t list;
    mutable current : Ballot.t option;
    mutable high_prepared : Ballot.t option;
    mutable decided : Scp.Node.decision option;
    mutable nom_round : int;
  }

  let make_obs ?metrics ?trace () =
    let c name = Option.map (fun r -> Obs.Metrics.counter r name) metrics in
    {
      trace;
      c_votes = c "scp_votes";
      c_accepts = c "scp_accepts";
      c_confirms = c "scp_confirms";
      c_ballots = c "scp_ballots_entered";
      c_nom_rounds = c "scp_nomination_rounds";
      c_decides = c "scp_decisions";
    }

  let bump = function Some c -> Obs.Metrics.incr c | None -> ()

  let obs_event st ctx name fields =
    match st.obs.trace with
    | None -> ()
    | Some sink ->
        Obs.Trace.emit sink ~time:(Engine.now ctx) ~scope:"scp" ~name
          (("node", Obs.Json.Int st.cfg.self) :: fields)

  let stmt_field stmt =
    [ ("stmt", Obs.Json.String (Format.asprintf "%a" Statement.pp stmt)) ]

  let make_state ?metrics ?trace (cfg : Scp.Node.config) =
    let known_slices = ref (Pid.Map.singleton cfg.self cfg.my_slices) in
    {
      cfg;
      obs = make_obs ?metrics ?trace ();
      fv =
        Fvoting.create ?metrics ~self:cfg.self
          ~system:(fun () -> !known_slices)
          ();
      known_slices;
      peers = Pid.Set.remove cfg.self cfg.initial_peers;
      seen = Seen.empty;
      sent = [];
      candidates = [];
      current = None;
      high_prepared = None;
      decided = None;
      nom_round = 1;
    }

  let leaders st =
    let domain =
      Pid.Set.add st.cfg.self (Fbqs.Slice.domain st.cfg.my_slices)
    in
    let ranked =
      List.sort
        (fun a b -> Int.compare (Scp.Node.priority b) (Scp.Node.priority a))
        (Pid.Set.elements domain)
    in
    let rec take k = function
      | [] -> []
      | _ when k = 0 -> []
      | x :: rest -> x :: take (k - 1) rest
    in
    Pid.Set.of_list (take st.nom_round ranked)

  let nomination_active st =
    match st.candidates with [] -> true | _ :: _ -> false

  let broadcast st ctx (env : Msg.t) =
    st.seen <- Seen.add env st.seen;
    Pid.Set.iter (fun j -> Engine.send ctx j env) st.peers

  let emit_own st ctx env =
    st.sent <- env :: st.sent;
    broadcast st ctx env

  let relay st ctx ~src (env : Msg.t) =
    Pid.Set.iter
      (fun j ->
        if not (Pid.equal j src || Pid.equal j env.origin) then
          Engine.send ctx j env)
      st.peers

  let sync_to st ctx j = List.iter (fun env -> Engine.send ctx j env) st.sent

  let vote st ctx stmt =
    let tl = Fvoting.tally st.fv stmt in
    if not tl.i_voted then begin
      Fvoting.set_voted st.fv stmt;
      Fvoting.record_vote st.fv stmt st.cfg.self;
      bump st.obs.c_votes;
      obs_event st ctx "vote" (stmt_field stmt);
      emit_own st ctx (Msg.vote st.cfg.self ~slices:st.cfg.my_slices stmt)
    end

  let accept st ctx stmt =
    Fvoting.mark_accepted st.fv stmt;
    Fvoting.record_accept st.fv stmt st.cfg.self;
    bump st.obs.c_accepts;
    obs_event st ctx "accept" (stmt_field stmt);
    emit_own st ctx (Msg.accept st.cfg.self ~slices:st.cfg.my_slices stmt)

  let merged st stmt (tl : Fvoting.tally) pick =
    match stmt with
    | Statement.Prepare b ->
        Fvoting.fold
          (fun s tl' acc ->
            match s with
            | Statement.Prepare b'
              when Ballot.compatible b b'
                   && b'.Ballot.counter >= b.Ballot.counter ->
                Pid.Dense_set.union acc (pick tl')
            | _ -> acc)
          st.fv Pid.Dense_set.empty
    | Statement.Nominate _ | Statement.Commit _ -> pick tl

  let voters (tl : Fvoting.tally) = tl.voters
  let acceptors (tl : Fvoting.tally) = tl.acceptors

  let contradicts_accepted st stmt =
    match stmt with
    | Statement.Prepare b ->
        Fvoting.exists
          (fun s (tl : Fvoting.tally) ->
            match s with
            | Statement.Commit b' ->
                tl.i_accepted && Ballot.less_and_incompatible b' b
            | _ -> false)
          st.fv
    | Statement.Commit b ->
        Fvoting.exists
          (fun s (tl : Fvoting.tally) ->
            match s with
            | Statement.Prepare b' ->
                tl.i_accepted && Ballot.less_and_incompatible b b'
            | _ -> false)
          st.fv
    | Statement.Nominate _ -> false

  let can_accept st stmt (tl : Fvoting.tally) =
    (not tl.i_accepted)
    && (not (contradicts_accepted st stmt))
    && (Fvoting.quorum_within st.fv (merged st stmt tl voters)
       || Fvoting.v_blocking st.fv (merged st stmt tl acceptors))

  let can_confirm st stmt (tl : Fvoting.tally) =
    (not tl.i_confirmed)
    && Fvoting.quorum_within st.fv (merged st stmt tl acceptors)

  let ballot_timeout = 40

  let arm_ballot_timer st ctx =
    match st.current with
    | Some b ->
        Engine.set_timer ctx
          ~delay:(ballot_timeout * b.Ballot.counter)
          (Printf.sprintf "ballot:%d" b.Ballot.counter)
    | None -> ()

  let next_ballot_value st =
    match st.high_prepared with
    | Some h -> h.Ballot.value
    | None -> Value.combine st.candidates

  let enter_ballot st ctx b =
    st.current <- Some b;
    bump st.obs.c_ballots;
    obs_event st ctx "enter_ballot"
      [ ("ballot", Obs.Json.String (Format.asprintf "%a" Ballot.pp b)) ];
    vote st ctx (Statement.Prepare b);
    arm_ballot_timer st ctx

  let may_vote_commit st b =
    Fvoting.for_all
      (fun s (tl : Fvoting.tally) ->
        match s with
        | Statement.Prepare b' ->
            (not (tl.i_voted || tl.i_accepted))
            || not (Ballot.less_and_incompatible b b')
        | _ -> true)
      st.fv

  let on_confirmed st ctx stmt =
    match stmt with
    | Statement.Nominate v ->
        if not (List.exists (Value.equal v) st.candidates) then begin
          st.candidates <- v :: st.candidates;
          if Option.is_none st.current then
            enter_ballot st ctx (Ballot.make 1 (Value.combine st.candidates))
        end
    | Statement.Prepare b ->
        (match st.high_prepared with
        | Some h when Ballot.compare h b >= 0 -> ()
        | Some _ | None -> st.high_prepared <- Some b);
        if may_vote_commit st b then vote st ctx (Statement.Commit b)
    | Statement.Commit b ->
        if Option.is_none st.decided then begin
          let d =
            {
              Scp.Node.value = b.Ballot.value;
              ballot = b;
              time = Engine.now ctx;
            }
          in
          st.decided <- Some d;
          bump st.obs.c_decides;
          obs_event st ctx "decide"
            [
              ( "value",
                Obs.Json.String (Format.asprintf "%a" Value.pp d.value) );
              ( "ballot",
                Obs.Json.String (Format.asprintf "%a" Ballot.pp d.ballot) );
            ];
          st.cfg.on_decide st.cfg.self d
        end

  let rec progress st ctx =
    let changed = ref false in
    Fvoting.iter
      (fun stmt tl ->
        if can_accept st stmt tl then begin
          accept st ctx stmt;
          changed := true
        end;
        if can_confirm st stmt tl then begin
          Fvoting.mark_confirmed st.fv stmt;
          bump st.obs.c_confirms;
          obs_event st ctx "confirm" (stmt_field stmt);
          on_confirmed st ctx stmt;
          changed := true
        end)
      st.fv;
    if !changed then progress st ctx

  let maybe_jump st ctx =
    Fvoting.iter
      (fun stmt (tl : Fvoting.tally) ->
        match stmt with
        | Statement.Prepare b ->
            let above_current =
              match st.current with
              | None -> true
              | Some cur -> Ballot.compare b cur > 0
            in
            if tl.i_accepted && above_current then enter_ballot st ctx b
        | Statement.Nominate _ | Statement.Commit _ -> ())
      st.fv

  let start_nomination st ctx =
    match st.cfg.nomination with
    | Scp.Node.Echo_all ->
        vote st ctx (Statement.Nominate st.cfg.initial_value)
    | Scp.Node.Leader_priority timeout ->
        if Pid.Set.mem st.cfg.self (leaders st) then
          vote st ctx (Statement.Nominate st.cfg.initial_value);
        Engine.set_timer ctx ~delay:timeout
          (Printf.sprintf "nom:%d" st.nom_round)

  let bump_nomination_round st ctx timeout =
    st.nom_round <- st.nom_round + 1;
    bump st.obs.c_nom_rounds;
    obs_event st ctx "nomination_round"
      [ ("round", Obs.Json.Int st.nom_round) ];
    let ls = leaders st in
    if Pid.Set.mem st.cfg.self ls then
      vote st ctx (Statement.Nominate st.cfg.initial_value);
    Fvoting.iter
      (fun stmt (tl : Fvoting.tally) ->
        match stmt with
        | Statement.Nominate _ ->
            if Pid.Set.exists (fun l -> Pid.Dense_set.mem l tl.voters) ls then
              vote st ctx stmt
        | Statement.Prepare _ | Statement.Commit _ -> ())
      st.fv;
    Engine.set_timer ctx
      ~delay:(timeout * st.nom_round)
      (Printf.sprintf "nom:%d" st.nom_round)

  let behavior ?metrics ?trace (cfg : Scp.Node.config) :
      Msg.t Engine.behavior =
    let st = make_state ?metrics ?trace cfg in
    let on_start ctx = start_nomination st ctx in
    let on_message ctx ~src (env : Msg.t) =
      if (not (Pid.Set.mem src st.peers)) && not (Pid.equal src cfg.self)
      then begin
        st.peers <- Pid.Set.add src st.peers;
        sync_to st ctx src
      end;
      if not (Seen.mem env st.seen) then begin
        st.seen <- Seen.add env st.seen;
        if not (Pid.Map.mem env.origin !(st.known_slices)) then
          st.known_slices :=
            Pid.Map.add env.origin env.slices !(st.known_slices);
        relay st ctx ~src env;
        (match env.kind with
        | Msg.Vote -> (
            Fvoting.record_vote st.fv env.stmt env.origin;
            match env.stmt with
            | Statement.Nominate _ when nomination_active st -> (
                match st.cfg.nomination with
                | Scp.Node.Echo_all -> vote st ctx env.stmt
                | Scp.Node.Leader_priority _ ->
                    if Pid.Set.mem env.origin (leaders st) then
                      vote st ctx env.stmt)
            | _ -> ())
        | Msg.Accept -> Fvoting.record_accept st.fv env.stmt env.origin);
        progress st ctx;
        maybe_jump st ctx
      end
    in
    let on_timer ctx tag =
      match st.cfg.nomination with
      | Scp.Node.Leader_priority timeout
        when String.equal tag (Printf.sprintf "nom:%d" st.nom_round)
             && nomination_active st && Option.is_none st.decided ->
          bump_nomination_round st ctx timeout
      | _ -> (
          match (st.current, st.decided) with
          | Some cur, None
            when String.equal tag
                   (Printf.sprintf "ballot:%d" cur.Ballot.counter) ->
              let b =
                Ballot.make (cur.Ballot.counter + 1) (next_ballot_value st)
              in
              enter_ballot st ctx b;
              progress st ctx
          | _ -> ())
    in
    { Engine.on_start; on_message; on_timer }
end

(* [Scp.Runner.run_cfg] wiring this module's honest [Node] (and
   [Scp.Node]'s Byzantine behaviours) into the same engine, judged the
   same way. *)
module Runner = struct
  open Simkit
  module Value = Scp.Value
  module Ballot = Scp.Ballot
  module Statement = Scp.Statement

  let run_cfg ?(cfg = Scp.Runner.default_cfg) ~system ~peers_of
      ~initial_value_of ~fault_of () : Scp.Runner.outcome =
    let rc = cfg.Scp.Runner.run in
    let metrics = rc.Run_config.metrics and trace = rc.Run_config.trace in
    let engine = Engine.create_cfg ~pp_msg:Scp.Msg.pp rc in
    Option.iter
      (fun reg ->
        ignore (Obs.Metrics.counter reg "fbqs_cache_hits");
        ignore (Obs.Metrics.counter reg "fbqs_cache_misses"))
      metrics;
    let trace_event ~time name fields =
      match trace with
      | None -> ()
      | Some sink -> Obs.Trace.emit sink ~time ~scope:"runner" ~name fields
    in
    trace_event ~time:0 "run_start"
      [
        ("seed", Obs.Json.Int rc.seed);
        ("max_time", Obs.Json.Int rc.max_time);
        ( "participants",
          Obs.Json.Int (Pid.Set.cardinal (Fbqs.Quorum.participants system)) );
      ];
    let decisions = ref Pid.Map.empty in
    let participants = Fbqs.Quorum.participants system in
    let correct = ref Pid.Set.empty in
    let undecided = ref 0 in
    let on_decide pid d =
      if (not (Pid.Map.mem pid !decisions)) && Pid.Set.mem pid !correct then
        decr undecided;
      decisions := Pid.Map.add pid d !decisions
    in
    Pid.Set.iter
      (fun i ->
        match fault_of i with
        | Some Scp.Runner.Silent -> Engine.add_node engine i Scp.Node.silent
        | Some (Scp.Runner.Accept_forger stmts) ->
            Engine.add_node engine i
              (Scp.Node.accept_forger ~self:i
                 ~slices:(Fbqs.Quorum.slices_of system i)
                 ~peers:(peers_of i) stmts)
        | Some (Scp.Runner.Nomination_equivocator { split; value_a; value_b })
          ->
            Engine.add_node engine i
              (Scp.Node.nomination_equivocator ~self:i
                 ~slices:(Fbqs.Quorum.slices_of system i)
                 ~split ~value_a ~value_b ~peers:(peers_of i))
        | Some
            (Scp.Runner.Slice_equivocator { split; slices_a; slices_b; value })
          ->
            Engine.add_node engine i
              (Scp.Node.slice_equivocator ~self:i ~slices_a ~slices_b ~split
                 ~value ~peers:(peers_of i))
        | None ->
            correct := Pid.Set.add i !correct;
            incr undecided;
            Engine.add_node engine i
              (Node.behavior ?metrics ?trace
                 {
                   Scp.Node.self = i;
                   my_slices = Fbqs.Quorum.slices_of system i;
                   initial_peers = peers_of i;
                   initial_value = initial_value_of i;
                   nomination = cfg.nomination;
                   on_decide;
                 }))
      participants;
    let all_decided () = !undecided = 0 in
    let stats = Engine.run ~stop:all_decided engine in
    let decisions = !decisions in
    let fault_injected i =
      match fault_of i with
      | Some (Scp.Runner.Nomination_equivocator { value_a; value_b; _ }) ->
          Value.union value_a value_b
      | Some (Scp.Runner.Accept_forger stmts) ->
          Value.combine
            (List.map
               (function
                 | Statement.Prepare b | Statement.Commit b -> b.Ballot.value
                 | Statement.Nominate v -> v)
               stmts)
      | Some (Scp.Runner.Slice_equivocator { value; _ }) -> value
      | Some Scp.Runner.Silent | None -> Value.empty
    in
    let proposed =
      Pid.Set.fold
        (fun i acc ->
          Value.union (Value.union acc (initial_value_of i)) (fault_injected i))
        participants Value.empty
    in
    let agreement, validity =
      Value.judge ~proposed
        (Pid.Map.fold
           (fun _ (d : Scp.Node.decision) acc -> d.value :: acc)
           decisions [])
    in
    trace_event ~time:stats.Engine.end_time "run_end"
      [
        ("end_time", Obs.Json.Int stats.Engine.end_time);
        ("all_decided", Obs.Json.Bool (all_decided ()));
        ("agreement", Obs.Json.Bool agreement);
        ("validity", Obs.Json.Bool validity);
      ];
    {
      Scp.Runner.decisions;
      all_decided = all_decided ();
      agreement;
      validity;
      stats;
    }
end
