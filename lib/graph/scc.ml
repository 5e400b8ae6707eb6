(* Every query runs on the compiled CSR handle (memoized in Csr's
   handle cache) and its allocation-free array Tarjan. The seed
   tree-set Tarjan lives on as the test oracle in [test/oracle]; both
   emit components in the same order — Csr's determinism contract. *)

let components g = Csr.scc_components (Csr.get g)

let component_of g i =
  let h = Csr.get g in
  match Csr.scc_component_of h i with
  | Some k -> (Csr.scc_component_sets h).(k)
  | None -> raise Not_found

let component_index g =
  let h = Csr.get g in
  let comp_of = Csr.scc_comp_of_dense h in
  let m = ref Pid.Map.empty in
  for v = 0 to Csr.n_vertices h - 1 do
    m := Pid.Map.add (Csr.pid_of h v) comp_of.(v) !m
  done;
  !m

let is_strongly_connected g = Csr.scc_count (Csr.get g) <= 1
