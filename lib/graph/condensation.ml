(* A condensation is a view of the memoized CSR handle: the SCC
   partition and DAG are computed once per graph value and shared by
   every query. Component ids, DAG successor lists and sink ids equal
   the seed construction's (the oracle in [test/oracle]) — Csr's
   determinism contract. *)

type t = Csr.t

let make = Csr.get
let components = Csr.scc_component_sets

let component_of h i =
  match Csr.scc_component_of h i with Some k -> k | None -> raise Not_found

let dag_succs h k = (Csr.dag_succs h).(k)
let sinks = Csr.dag_sinks

let sink_components g =
  let h = make g in
  let comps = components h in
  List.map (fun k -> comps.(k)) (sinks h)

let unique_sink g =
  match sink_components g with [ c ] -> Some c | _ -> None
