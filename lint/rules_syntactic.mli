(** Phase 1: AST-level determinism and protocol-purity rules.

    Sources are parsed with [Pparse] (compiler-libs) and walked with
    [Ast_iterator]. There is no typing pass here, so every rule is a
    syntactic heuristic, scoped by the file's repo-relative path:

    - D1 — [Hashtbl.iter]/[Hashtbl.fold] whose result can escape in
      enumeration order. Allowed when an ordering step appears in the
      same expression: a [List.sort]-family call enclosing or inside
      the enumeration, or a conversion through a [Set]/[Map] submodule
      (e.g. folding into [Pid.Map.add]).
    - D2 — wall-clock and ambient entropy ([Random.self_init],
      [Unix.gettimeofday], [Unix.time], [Sys.time]) outside [bench/],
      and any [Random] value, type or module path under [lib/], which
      draws from [Graphkit.Rng].
    - D3 — polymorphic [compare]/[(=)]/[(<>)]/[Hashtbl.hash] applied
      to [Pid.Set]/[Pid.Map]/[Slice] values, judged from each
      argument's head only. Superseded by the typed rule T1
      ({!Rules_typed}) whenever a [--cmt] phase runs; kept as the
      fallback for syntactic-only runs.
    - D4 — [Marshal] outside the executor library ([lib/sim/pool.ml]
      and [lib/sim/exec.ml]), and [Obj.*] anywhere.
    - D5 — float [Printf]/[Format] conversions inside [lib/obs] render
      paths; JSON floats must go through the [Obs.Json] encoder.
    - D6 — shared-memory parallelism primitives ([Domain.spawn],
      [Mutex.*], [Condition.*]) outside [lib/sim/]; parallel work goes
      through [Simkit.Exec].
    - M1 — every [lib/] module must have an [.mli]. *)

val lint_source : rel:string -> string -> Lint_core.report
(** [lint_source ~rel path] parses [path] (an [.ml] or [.mli],
    dispatched on extension) and runs rules D1–D6 scoped as if the
    file lived at [rel]. Unparseable sources yield a single [PARSE]
    finding. Both lists come back sorted. *)

val rule_m1 :
  ml_files:string list -> mli_files:string list -> Lint_core.finding list
(** M1 over repo-relative path lists: every [lib/**.ml] without its
    sibling [.mli]. *)
