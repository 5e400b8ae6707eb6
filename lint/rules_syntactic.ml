open Parsetree

(* ------------------------------------------------------------------ *)
(* Path scoping                                                       *)
(* ------------------------------------------------------------------ *)

let in_bench rel = String.starts_with ~prefix:"bench/" rel
let in_lib rel = String.starts_with ~prefix:"lib/" rel
let in_obs rel = String.starts_with ~prefix:"lib/obs/" rel

(* The executor library (Simkit.Exec and its Simkit.Pool fork backend)
   is the one sanctioned Marshal user (worker IPC). *)
let marshal_home rel =
  String.equal rel "lib/sim/pool.ml" || String.equal rel "lib/sim/exec.ml"

(* Shared-memory parallelism primitives (domain spawning, locks) stay
   behind the Simkit.Exec seam: everything under lib/sim/ may use
   them, nothing else may. *)
let exec_home rel = String.starts_with ~prefix:"lib/sim/" rel

let parallelism_path comps =
  match comps with
  | "Mutex" :: _
  | "Stdlib" :: "Mutex" :: _
  | "Condition" :: _
  | "Stdlib" :: "Condition" :: _ ->
      true
  | ("Domain" :: _ | "Stdlib" :: "Domain" :: _) -> (
      (* Only [spawn] — introspection like
         [Domain.recommended_domain_count] is harmless anywhere. *)
      match List.rev comps with "spawn" :: _ -> true | _ -> false)
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Longident helpers                                                  *)
(* ------------------------------------------------------------------ *)

let flatten lid = try Longident.flatten lid with _ -> []

let ident_path e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> (
      match flatten txt with [] -> None | comps -> Some comps)
  | _ -> None

let last_two comps =
  match List.rev comps with
  | last :: prev :: _ -> Some (prev, last)
  | [ last ] -> Some ("", last)
  | [] -> None

(* An "ordering step": a sort, or a conversion through an ordered
   [Set]/[Map] submodule (e.g. folding into [Pid.Map.add]). *)
let is_sort_fn = function
  | ( ("List" | "ListLabels" | "Array" | "ArrayLabels"),
      ("sort" | "stable_sort" | "fast_sort" | "sort_uniq") ) ->
      true
  | _ -> false

let is_ordering_path comps =
  List.exists (fun c -> String.equal c "Set" || String.equal c "Map") comps
  || match last_two comps with Some p -> is_sort_fn p | None -> false

let is_hashtbl_enum comps =
  match last_two comps with
  | Some ("Hashtbl", ("iter" | "fold")) -> true
  | _ -> false

let entropy_path comps =
  match last_two comps with
  | Some ("Random", ("self_init" | "make_self_init"))
  | Some ("State", "make_self_init")
  | Some ("Unix", ("gettimeofday" | "time"))
  | Some ("Sys", "time") ->
      true
  | _ -> false

(* The stdlib's Random draws other streams on OCaml 4.14 than on 5;
   lib/ draws from Graphkit.Rng, which is the same on both. *)
let random_path = function
  | "Random" :: _ | "Stdlib" :: "Random" :: _ -> true
  | _ -> false

let marshal_or_obj comps =
  match comps with
  | "Marshal" :: _ | "Stdlib" :: "Marshal" :: _ -> Some `Marshal
  | "Obj" :: _ | "Stdlib" :: "Obj" :: _ -> Some `Obj
  | _ -> None

let poly_compare_head comps =
  match comps with
  | [ ("=" | "<>" | "compare") ] | [ "Stdlib"; ("=" | "<>" | "compare") ] ->
      true
  | _ -> (
      match last_two comps with
      | Some ("Hashtbl", "hash") -> true
      | _ -> false)

(* D3 looks only at each argument's head: a value built by a container
   constructor (or annotated with a container type) is sensitive, while
   scalar accessors are not — [n = Pid.Set.cardinal s] is a plain int
   comparison even though a set appears in the subtree. The typed rule
   T1 (see Rules_typed) supersedes this heuristic when a --cmt phase
   runs: it sees resolved argument types, so it also catches values
   that reach the comparison through aliases or partial application. *)
let container_module c =
  String.equal c "Set" || String.equal c "Map" || String.equal c "Slice"

let container_ctor = function
  | "empty" | "singleton" | "add" | "remove" | "union" | "inter" | "diff"
  | "of_list" | "of_set" | "of_range" | "of_ints" | "filter" | "map" | "mapi"
  | "keys" | "update" | "threshold" | "explicit" ->
      true
  | _ -> false

let sensitive_value_path comps =
  List.exists container_module comps
  && match List.rev comps with last :: _ -> container_ctor last | [] -> false

let sensitive_type ty =
  match ty.ptyp_desc with
  | Ptyp_constr ({ txt; _ }, _) -> List.exists container_module (flatten txt)
  | _ -> false

let rec sensitive_arg a =
  match a.pexp_desc with
  | Pexp_constraint (e, ty) -> sensitive_type ty || sensitive_arg e
  | Pexp_apply (h, _) -> (
      match ident_path h with
      | Some comps -> sensitive_value_path comps
      | None -> false)
  | Pexp_ident { txt; _ } -> sensitive_value_path (flatten txt)
  | _ -> false

let is_format_family comps =
  List.exists (fun c -> String.equal c "Printf" || String.equal c "Format") comps

(* Does a printf-style literal contain a float conversion (%f %e %g %h
   and friends)? Width/precision/flags are skipped; [%%] never
   matches. *)
let has_float_conversion s =
  let n = String.length s in
  let rec conv j =
    if j >= n then false
    else
      match s.[j] with
      | 'f' | 'F' | 'e' | 'E' | 'g' | 'G' | 'h' | 'H' -> true
      | '0' .. '9' | '.' | '-' | '+' | ' ' | '#' | '*' -> conv (j + 1)
      | _ -> false
  in
  let rec go i =
    if i >= n - 1 then false
    else if s.[i] = '%' then conv (i + 1) || go (i + 1)
    else go (i + 1)
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Expression-level rules                                             *)
(* ------------------------------------------------------------------ *)

let loc_pos loc =
  let p = loc.Location.loc_start in
  (p.Lexing.pos_lnum, p.Lexing.pos_cnum - p.Lexing.pos_bol)

(* Every ident path (and type-constructor path, for [(e : Pid.Set.t)]
   constraints) mentioned anywhere inside [e]. *)
let subtree_paths e =
  let acc = ref [] in
  let expr it e =
    (match e.pexp_desc with
    | Pexp_ident { txt; _ } -> (
        match flatten txt with [] -> () | comps -> acc := comps :: !acc)
    | _ -> ());
    Ast_iterator.default_iterator.expr it e
  in
  let typ it ty =
    (match ty.ptyp_desc with
    | Ptyp_constr ({ txt; _ }, _) -> (
        match flatten txt with [] -> () | comps -> acc := comps :: !acc)
    | _ -> ());
    Ast_iterator.default_iterator.typ it ty
  in
  let it = { Ast_iterator.default_iterator with expr; typ } in
  it.expr it e;
  !acc

let run_expr_rules ~rel structure =
  let findings = ref [] in
  let add loc rule message =
    let line, col = loc_pos loc in
    findings := Lint_core.mk ~file:rel ~line ~col ~rule ~message :: !findings
  in
  (* Depth of enclosing applications whose head is an ordering step:
     inside [List.sort cmp (Hashtbl.fold ...)] the fold is fine. *)
  let ordered_depth = ref 0 in
  let random_in_lib loc comps =
    if in_lib rel && random_path comps then
      add loc "D2"
        (Printf.sprintf
           "%s: lib/ draws from Graphkit.Rng, whose seeded stream is the \
            same on every compiler"
           (String.concat "." comps))
  in
  let expr it e =
    (match e.pexp_desc with
    | Pexp_ident _ -> (
        match ident_path e with
        | None -> ()
        | Some comps ->
            if entropy_path comps && not (in_bench rel) then
              add e.pexp_loc "D2"
                (Printf.sprintf
                   "%s: wall-clock/ambient entropy is banned outside bench/ \
                    (thread the seed through Run_config instead)"
                   (String.concat "." comps))
            else random_in_lib e.pexp_loc comps;
            (match marshal_or_obj comps with
            | Some `Marshal when not (marshal_home rel) ->
                add e.pexp_loc "D4"
                  "Marshal is confined to the executor library (Simkit.Exec / \
                   Simkit.Pool)"
            | Some `Obj ->
                add e.pexp_loc "D4" "Obj.* breaks abstraction and is banned"
            | Some `Marshal | None -> ());
            if parallelism_path comps && not (exec_home rel) then
              add e.pexp_loc "D6"
                (Printf.sprintf
                   "%s: shared-memory parallelism (Domain.spawn, Mutex, \
                    Condition) is confined to lib/sim; go through Simkit.Exec"
                   (String.concat "." comps)))
    | Pexp_apply (f, args) ->
        (match ident_path f with
        | Some comps when is_hashtbl_enum comps ->
            if
              !ordered_depth = 0
              && not (List.exists is_ordering_path (subtree_paths e))
            then
              add f.pexp_loc "D1"
                "Hashtbl enumeration order escapes; sort or convert via \
                 Set/Map in the same expression, or add (* lint: allow D1 — \
                 reason *)"
        | _ -> ());
        (match ident_path f with
        | Some comps when poly_compare_head comps ->
            if List.exists (fun (_, a) -> sensitive_arg a) args then
              add f.pexp_loc "D3"
                "polymorphic compare/(=)/hash on Pid.Set/Pid.Map/Slice \
                 values; use the typed comparators"
        | _ -> ());
        if in_obs rel then (
          match ident_path f with
          | Some comps when is_format_family comps ->
              List.iter
                (fun (_, a) ->
                  match a.pexp_desc with
                  | Pexp_constant (Pconst_string (s, _, _))
                    when has_float_conversion s ->
                      add a.pexp_loc "D5"
                        "float format in a lib/obs render path; floats must \
                         go through the Obs.Json encoder"
                  | _ -> ())
                args
          | _ -> ())
    | _ -> ());
    let entered =
      match e.pexp_desc with
      | Pexp_apply (f, _) -> (
          match ident_path f with
          | Some comps -> is_ordering_path comps
          | None -> false)
      | _ -> false
    in
    if entered then incr ordered_depth;
    Ast_iterator.default_iterator.expr it e;
    if entered then decr ordered_depth
  in
  let typ it ty =
    (match ty.ptyp_desc with
    | Ptyp_constr ({ txt; _ }, _) -> random_in_lib ty.ptyp_loc (flatten txt)
    | _ -> ());
    Ast_iterator.default_iterator.typ it ty
  in
  let module_expr it m =
    (match m.pmod_desc with
    | Pmod_ident { txt; _ } -> random_in_lib m.pmod_loc (flatten txt)
    | _ -> ());
    Ast_iterator.default_iterator.module_expr it m
  in
  let it = { Ast_iterator.default_iterator with expr; typ; module_expr } in
  it.structure it structure;
  !findings

(* ------------------------------------------------------------------ *)
(* Entry points                                                       *)
(* ------------------------------------------------------------------ *)

let lint_source ~rel path =
  let parsed =
    try
      if Filename.check_suffix path ".mli" then begin
        ignore (Pparse.parse_interface ~tool_name:"stellar-lint" path);
        Ok None
      end
      else Ok (Some (Pparse.parse_implementation ~tool_name:"stellar-lint" path))
    with exn -> Error (Printexc.to_string exn)
  in
  match parsed with
  | Error msg ->
      {
        Lint_core.active =
          [ Lint_core.mk ~file:rel ~line:1 ~col:0 ~rule:"PARSE" ~message:msg ];
        suppressed = [];
      }
  | Ok None -> { Lint_core.active = []; suppressed = [] }
  | Ok (Some structure) ->
      let found = run_expr_rules ~rel structure in
      let allows = Lint_core.allows_of_text (Lint_core.read_file path) in
      let suppressed, active =
        List.partition (Lint_core.is_allowed allows) found
      in
      {
        Lint_core.active = List.sort Lint_core.compare_finding active;
        suppressed = List.sort Lint_core.compare_finding suppressed;
      }

let rule_m1 ~ml_files ~mli_files =
  ml_files
  |> List.filter (fun f ->
         String.starts_with ~prefix:"lib/" f
         && Filename.check_suffix f ".ml"
         && not (List.mem (f ^ "i") mli_files))
  |> List.map (fun f ->
         Lint_core.mk ~file:f ~line:1 ~col:0 ~rule:"M1"
           ~message:"lib/ module has no .mli; every lib interface is explicit")
  |> List.sort Lint_core.compare_finding
