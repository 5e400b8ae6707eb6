(** Phase 2: Typedtree rule families, run over the units loaded by
    {!Loader} from a [--cmt] directory.

    - R1 — a literal closure in the job position of
      [Simkit.Exec.map] / [Simkit.Pool.map_persistent] captures a
      variable of mutable type (ref, [Hashtbl.t], [Buffer.t],
      [Bytes.t], arrays, queues/stacks, records with mutable fields —
      resolved through aliases) defined outside the closure.
    - R2 — toplevel mutable state in a unit reachable through the
      call graph from a job function, flagged at the binding site
      with the job site and witness chain in the message.
    - P1 — determinism taint: from the D2 entropy sources plus
      [Hashtbl.hash], propagated backward through the call graph; any
      tainted value exported from a [lib/**.mli] is reported at its
      definition site with the full call chain.
    - T1 — any occurrence of [(=)]/[(<>)]/[compare]/[Hashtbl.hash]
      whose instantiated type takes a Set/Map/Slice value (resolved
      through aliases, so partial application and [type k = Pid.Set.t]
      disguises are caught). Supersedes the syntactic D3. *)

val run : ?lib_prefix:string -> Loader.t -> Lint_core.finding list
(** Sorted by {!Lint_core.compare_finding}. [lib_prefix] (default
    ["lib/"]) scopes P1's "exported from a lib interface" test; the
    typed self-tests point it at the fixture corpus. Allow comments
    are {e not} applied here — drivers run
    {!Lint_core.apply_allows} over the result. *)
