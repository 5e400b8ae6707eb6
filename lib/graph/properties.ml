type osr_failure =
  | Not_connected
  | Sink_count of int
  | Sink_not_k_connected of int
  | Non_sink_paths of Pid.t * Pid.t * int

let pp_osr_failure ppf = function
  | Not_connected ->
      Format.fprintf ppf "undirected closure is not connected"
  | Sink_count n ->
      Format.fprintf ppf "condensation has %d sink components (want 1)" n
  | Sink_not_k_connected c ->
      Format.fprintf ppf "sink component is only %d-strongly connected" c
  | Non_sink_paths (i, j, c) ->
      Format.fprintf ppf
        "only %d node-disjoint paths from non-sink %d to sink member %d" c i j

(* One handle of [g] answers connectivity, the sink and every
   non-sink × sink path count; the sink subgraph is compiled once for
   its pairs. Its connectivity is below [k] exactly when it is not
   k-strongly connected, so one scan decides and reports it. *)
let check_k_osr g k =
  let h = Csr.of_graph g in
  if not (Traversal.is_connected_undirected_csr h) then Error Not_connected
  else
    match Csr.dag_sinks h with
    | [] -> Error (Sink_count 0)
    | _ :: _ :: _ as cs -> Error (Sink_count (List.length cs))
    | [ s ] ->
        let sink = (Csr.scc_component_sets h).(s) in
        let c = Connectivity.vertex_connectivity (Digraph.subgraph sink g) in
        if c < k then Error (Sink_not_k_connected c)
        else begin
          let non_sink = Pid.Set.diff (Digraph.vertices g) sink in
          let offending =
            Pid.Set.fold
              (fun i acc ->
                match acc with
                | Some _ -> acc
                | None ->
                    Pid.Set.fold
                      (fun j acc ->
                        match acc with
                        | Some _ -> acc
                        | None ->
                            let c =
                              Connectivity.node_disjoint_paths_csr h i j
                            in
                            if c < k then Some (i, j, c) else None)
                      sink None)
              non_sink None
          in
          match offending with
          | Some (i, j, c) -> Error (Non_sink_paths (i, j, c))
          | None -> Ok sink
        end

let is_k_osr g k = Result.is_ok (check_k_osr g k)

let is_byzantine_safe g ~f ~faulty =
  Pid.Set.cardinal faulty <= f
  && is_k_osr (Digraph.remove_vertices faulty g) (f + 1)

let solvable g ~f ~faulty =
  is_byzantine_safe g ~f ~faulty
  &&
  match Condensation.unique_sink g with
  | None -> false
  | Some sink -> Pid.Set.cardinal (Pid.Set.diff sink faulty) >= (2 * f) + 1

let sink_of_exn g =
  match Condensation.unique_sink g with
  | Some s -> s
  | None -> invalid_arg "Properties.sink_of_exn: no unique sink component"
