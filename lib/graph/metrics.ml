type t = {
  vertices : int;
  edges : int;
  min_out_degree : int;
  max_out_degree : int;
  avg_out_degree : float;
  min_in_degree : int;
  max_in_degree : int;
  density : float;
  diameter : int option;
  scc_count : int;
  sink_size : int option;
}

(* One handle answers every eccentricity, the SCC count and the sink. *)
let compute g =
  let h = Csr.of_graph g in
  let vs = Pid.Set.elements (Digraph.vertices g) in
  let n = List.length vs in
  let m = Digraph.n_edges g in
  let fold_deg deg =
    List.fold_left
      (fun (mn, mx, total) v ->
        let d = Pid.Set.cardinal (deg v) in
        (min mn d, max mx d, total + d))
      (max_int, 0, 0) vs
  in
  let out_mn, out_mx, out_total = fold_deg (Digraph.succs g) in
  let in_mn, in_mx, _ = fold_deg (Digraph.preds g) in
  let diameter =
    if n < 2 then None
    else
      Some
        (List.fold_left
           (fun acc v ->
             match Traversal.eccentricity_csr h v with
             | Some e -> max acc e
             | None -> acc)
           0 vs)
  in
  {
    vertices = n;
    edges = m;
    min_out_degree = (if n = 0 then 0 else out_mn);
    max_out_degree = out_mx;
    avg_out_degree = (if n = 0 then 0. else float_of_int out_total /. float_of_int n);
    min_in_degree = (if n = 0 then 0 else in_mn);
    max_in_degree = in_mx;
    density =
      (if n <= 1 then 0. else float_of_int m /. float_of_int (n * (n - 1)));
    diameter;
    scc_count = Csr.scc_count h;
    sink_size =
      (match Csr.dag_sinks h with
      | [ k ] -> Some (Pid.Set.cardinal (Csr.scc_component_sets h).(k))
      | _ -> None);
  }

let pp ppf t =
  Format.fprintf ppf
    "@[<v>vertices: %d@,edges: %d@,out-degree: %d..%d (avg %.2f)@,\
     in-degree: %d..%d@,density: %.3f@,diameter: %s@,sccs: %d@,sink size: %s@]"
    t.vertices t.edges t.min_out_degree t.max_out_degree t.avg_out_degree
    t.min_in_degree t.max_in_degree t.density
    (match t.diameter with Some d -> string_of_int d | None -> "-")
    t.scc_count
    (match t.sink_size with Some s -> string_of_int s | None -> "no unique sink")
