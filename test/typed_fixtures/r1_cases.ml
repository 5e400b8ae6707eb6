(* Capture fixtures for R1: literal closures in Exec/Pool job
   positions, one per capture class the rule distinguishes. *)

let table : (int, int) Hashtbl.t = Hashtbl.create 16

let cache : (int, int) Core.Cache.t =
  Core.Cache.create ~name:"r1-fixture" ~capacity:8 ()

(* R1-positive: the job closure captures the toplevel [table]. *)
let uses_table xs =
  Simkit.Exec.map ~jobs:2
    (fun x ->
      Hashtbl.replace table x x;
      x)
    xs

(* R1-negative: Core.Cache captures are exempt — the executor arms the
   cache protector before its first spawn. *)
let uses_cache xs =
  Simkit.Exec.map ~jobs:2
    (fun x -> Core.Cache.find_or_add cache x (fun () -> x * 2))
    xs

(* R1-negative: the Hashtbl is local to the closure, not captured. *)
let local_table xs =
  Simkit.Exec.map ~jobs:2
    (fun x ->
      let h = Hashtbl.create 4 in
      Hashtbl.replace h x x;
      Hashtbl.length h)
    xs

(* R1-positive via the fork backend Exec uses: a captured ref. *)
let pool_ref xs =
  let seen = ref 0 in
  Simkit.Pool.map_persistent ~chunk:1 ~workers:2
    (fun x ->
      incr seen;
      x + !seen)
    xs

(* R2 entry: the job is a named function, so R1 has no literal closure
   to inspect; the call graph leads to [R2_state.counter]. *)
let via_module xs = Simkit.Exec.map ~jobs:2 R2_state.bump xs
