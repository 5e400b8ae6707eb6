(* Every query compiles the graph into a CSR handle and runs its
   allocation-free array Tarjan. The seed
   tree-set Tarjan lives on as the test oracle in [test/oracle]; both
   emit components in the same order — Csr's determinism contract. *)

let components g = Csr.scc_components (Csr.of_graph g)

let component_of g i =
  let h = Csr.of_graph g in
  match Csr.scc_component_of h i with
  | Some k -> (Csr.scc_component_sets h).(k)
  | None -> raise Not_found

let is_strongly_connected g = Csr.scc_count (Csr.of_graph g) <= 1
