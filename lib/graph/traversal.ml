(* Reachability on the compiled CSR kernel: one int-array BFS (dense
   queue + distance array) replaces the seed's set-union frontier
   expansion, which lives on as the test oracle in [test/oracle].
   Layers, distances and reachable sets are canonical values, so the
   two agree exactly. *)

(* ---- CSR kernels ------------------------------------------------------ *)

(* Distance array for a BFS from dense vertex [s]; [-1] marks
   unreached. The queue is a plain int array cursor pair — no
   allocation past the two arrays. *)
let bfs_dist h s =
  let n = Csr.n_vertices h in
  let off = Csr.succ_off h and arr = Csr.succ_arr h in
  let dist = Array.make n (-1) in
  let queue = Array.make n 0 in
  let head = ref 0 and tail = ref 0 in
  dist.(s) <- 0;
  queue.(!tail) <- s;
  incr tail;
  while !head < !tail do
    let v = queue.(!head) in
    incr head;
    for i = off.(v) to off.(v + 1) - 1 do
      let w = arr.(i) in
      if dist.(w) < 0 then begin
        dist.(w) <- dist.(v) + 1;
        queue.(!tail) <- w;
        incr tail
      end
    done
  done;
  dist

let set_of_reached h dist =
  let acc = ref Pid.Set.empty in
  for v = Csr.n_vertices h - 1 downto 0 do
    if dist.(v) >= 0 then acc := Pid.Set.add (Csr.pid_of h v) !acc
  done;
  !acc

(* ---- public API -------------------------------------------------------- *)

let bfs_layers g src =
  let h = Csr.of_graph g in
  match Csr.index_of h src with
  | None -> []
  | Some s ->
      let dist = bfs_dist h s in
      let maxd = Array.fold_left max 0 dist in
      let layers = Array.make (maxd + 1) Pid.Set.empty in
      for v = 0 to Csr.n_vertices h - 1 do
        let d = dist.(v) in
        if d >= 0 then layers.(d) <- Pid.Set.add (Csr.pid_of h v) layers.(d)
      done;
      Array.to_list layers

let reachable g src =
  let h = Csr.of_graph g in
  match Csr.index_of h src with
  | None -> Pid.Set.empty
  | Some s -> set_of_reached h (bfs_dist h s)

let reachable_from_set g srcs =
  (* One multi-source BFS: the union of per-source reachable sets is
     exactly the set reached from all (present) sources at once. *)
  let h = Csr.of_graph g in
  let n = Csr.n_vertices h in
  let off = Csr.succ_off h and arr = Csr.succ_arr h in
  let dist = Array.make n (-1) in
  let queue = Array.make n 0 in
  let head = ref 0 and tail = ref 0 in
  Pid.Set.iter
    (fun i ->
      match Csr.index_of h i with
      | Some s when dist.(s) < 0 ->
          dist.(s) <- 0;
          queue.(!tail) <- s;
          incr tail
      | _ -> ())
    srcs;
  while !head < !tail do
    let v = queue.(!head) in
    incr head;
    for i = off.(v) to off.(v + 1) - 1 do
      let w = arr.(i) in
      if dist.(w) < 0 then begin
        dist.(w) <- 0;
        queue.(!tail) <- w;
        incr tail
      end
    done
  done;
  set_of_reached h dist

let distance g src dst =
  let h = Csr.of_graph g in
  match (Csr.index_of h src, Csr.index_of h dst) with
  | Some s, Some t ->
      let d = (bfs_dist h s).(t) in
      if d < 0 then None else Some d
  | _ -> None

let shortest_path g src dst =
  if not (Digraph.mem_vertex src g && Digraph.mem_vertex dst g) then None
  else
    (* Standard BFS keeping a parent pointer per discovered vertex. *)
    let parents = Hashtbl.create 16 in
    let q = Queue.create () in
    Queue.add src q;
    Hashtbl.replace parents src src;
    let rec loop () =
      if Queue.is_empty q then None
      else
        let i = Queue.pop q in
        if Pid.equal i dst then
          let rec rebuild acc j =
            if Pid.equal j src then src :: acc
            else rebuild (j :: acc) (Hashtbl.find parents j)
          in
          Some (rebuild [] dst)
        else begin
          Pid.Set.iter
            (fun j ->
              if not (Hashtbl.mem parents j) then begin
                Hashtbl.replace parents j i;
                Queue.add j q
              end)
            (Digraph.succs g i);
          loop ()
        end
    in
    loop ()

let is_connected_undirected_csr h =
  let n = Csr.n_vertices h in
  n = 0
  ||
  (* BFS over the symmetric closure directly on the compiled rows — no
     undirected copy of the graph is materialised. *)
  let soff = Csr.succ_off h and sarr = Csr.succ_arr h in
  let poff = Csr.pred_off h and parr = Csr.pred_arr h in
  let seen = Array.make n false in
  let queue = Array.make n 0 in
  let head = ref 0 and tail = ref 0 in
  seen.(0) <- true;
  queue.(0) <- 0;
  incr tail;
  let visit w =
    if not seen.(w) then begin
      seen.(w) <- true;
      queue.(!tail) <- w;
      incr tail
    end
  in
  while !head < !tail do
    let v = queue.(!head) in
    incr head;
    for i = soff.(v) to soff.(v + 1) - 1 do
      visit sarr.(i)
    done;
    for i = poff.(v) to poff.(v + 1) - 1 do
      visit parr.(i)
    done
  done;
  !tail = n

let is_connected_undirected g = is_connected_undirected_csr (Csr.of_graph g)

let eccentricity_csr h i =
  match Csr.index_of h i with
  | None -> None
  | Some s -> Some (Array.fold_left max 0 (bfs_dist h s))

let eccentricity g i = eccentricity_csr (Csr.of_graph g) i
