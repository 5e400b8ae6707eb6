(* Typedtree rule families (the --cmt phase).

   R1 — parallel capture safety, closure form: a literal closure in
   the job position of Simkit.Exec.map / Simkit.Pool.map_persistent
   must not capture a variable of mutable type (ref, Hashtbl.t,
   Buffer.t, Bytes.t, arrays, queues/stacks, records with mutable
   fields — through type aliases) defined outside the closure.

   R2 — parallel capture safety, module form: toplevel mutable state
   in any unit reachable (via the call graph) from a job function is
   flagged at the binding site, with the job site and witness chain
   in the message.

   P1 — determinism taint: starting from the D2 entropy sources
   (Unix.gettimeofday / Unix.time / Sys.time, Random.self_init,
   Random.State.make_self_init) plus Hashtbl.hash, taint propagates
   backward through the call graph; any tainted value exported from a
   lib/**.mli is reported at its definition site with the full call
   chain. D2 bans the direct mention; P1 is what catches a source
   laundered through helpers an .mli happily exports.

   T1 — typed polymorphic comparison: any occurrence of (=) / (<>) /
   compare / Hashtbl.hash whose instantiated type takes a
   Set/Map/Slice value (resolved through aliases, so partial
   applications and [type key = Pid.Set.t] disguises are caught) is
   flagged. T1 supersedes the syntactic D3 head heuristic; an
   existing [allow D3] keeps waiving the site. *)

let exec_entry comps =
  match comps with
  | [ "Simkit"; "Exec"; "map" ] | [ "Simkit"; "Pool"; "map_persistent" ] ->
      true
  | _ -> false

let entropy_seed comps =
  match comps with
  | [ "Unix"; "gettimeofday" ]
  | [ "Unix"; "time" ]
  | [ "Sys"; "time" ]
  | [ "Random"; "self_init" ]
  | [ "Random"; "make_self_init" ]
  | [ "Random"; "State"; "make_self_init" ]
  | [ "Hashtbl"; "hash" ] ->
      true
  | _ -> false

let builtin_mutable comps =
  match comps with
  | [ "ref" ]
  | [ "array" ]
  | [ "bytes" ]
  | [ "Bytes"; "t" ]
  | [ "Hashtbl"; "t" ]
  | [ "Buffer"; "t" ]
  | [ "Queue"; "t" ]
  | [ "Stack"; "t" ]
  | [ "Atomic"; "t" ] ->
      true
  | _ -> false

(* The raw (un-canonicalized) path must pin the operator to Stdlib: a
   module's own [compare] is a bare Pident and must not match. *)
let poly_compare p =
  match Loader.raw_comps p with
  | [ "Stdlib"; ("=" | "<>" | "compare") ] -> true
  | _ -> Loader.path_comps p = [ "Hashtbl"; "hash" ]

let container_module c =
  String.equal c "Set" || String.equal c "Map" || String.equal c "Slice"

(* The container type itself ([Pid.Set.t], [Slice.t]), not its element
   or key types: [Pid.Set.elt] is a plain pid and compares fine. *)
let sensitive_head comps =
  match List.rev comps with
  | "t" :: rest -> List.exists container_module rest
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Type declaration tables                                            *)
(* ------------------------------------------------------------------ *)

(* Everything the type rules need to see through a Tconstr: whether a
   named type is a record with mutable fields (directly or through
   its field types), and what a manifest alias expands to. Built from
   the loaded units' own Tstr_type items — no Env reconstruction, so
   types declared outside the cmt set (stdlib, C stubs) fall back to
   the builtin list above. *)
type decls = {
  records : (string, Types.label_declaration list) Hashtbl.t;
  has_mutable_field : (string, bool) Hashtbl.t;
  aliases : (string, Types.type_expr) Hashtbl.t;
}

let decl_tables (loaded : Loader.t) =
  let records = Hashtbl.create 64 in
  let has_mutable_field = Hashtbl.create 64 in
  let aliases = Hashtbl.create 64 in
  List.iter
    (fun (u : Loader.unit_info) ->
      List.iter
        (fun (item : Typedtree.structure_item) ->
          match item.str_desc with
          | Typedtree.Tstr_type (_, decls) ->
              List.iter
                (fun (d : Typedtree.type_declaration) ->
                  let name =
                    String.concat "."
                      (u.mod_comps @ [ Ident.name d.typ_id ])
                  in
                  (match d.typ_type.Types.type_kind with
                  | Types.Type_record (lds, _) ->
                      Hashtbl.replace records name lds;
                      if
                        List.exists
                          (fun (ld : Types.label_declaration) ->
                            ld.ld_mutable = Asttypes.Mutable)
                          lds
                      then Hashtbl.replace has_mutable_field name true
                  | _ -> ());
                  match d.typ_type.Types.type_manifest with
                  | Some ty -> Hashtbl.replace aliases name ty
                  | None -> ())
                decls
          | _ -> ())
        u.structure.str_items)
    loaded.units;
  { records; has_mutable_field; aliases }

(* Look a canonical component list up in a decl table, trying the
   unqualified spelling against the current unit first (within its
   own unit a type is a bare Pident). *)
let decl_find tbl ~mod_comps comps =
  let joined = String.concat "." comps in
  match Hashtbl.find_opt tbl joined with
  | Some v -> Some v
  | None -> (
      match comps with
      | [ _ ] ->
          Hashtbl.find_opt tbl (String.concat "." (mod_comps @ comps))
      | _ -> None)

(* ------------------------------------------------------------------ *)
(* Type predicates                                                    *)
(* ------------------------------------------------------------------ *)

let max_depth = 8

(* Is [ty] (hereditarily) shared-mutable state? Follows aliases and
   recurses through tuples, type arguments and record fields, with a
   visited set against recursive declarations. *)
let is_mutable_type decls ~mod_comps ty =
  let visiting = Hashtbl.create 8 in
  let rec go depth ty =
    if depth > max_depth then false
    else
      match Types.get_desc ty with
      | Types.Ttuple tys -> List.exists (go (depth + 1)) tys
      | Types.Tconstr (p, args, _) -> (
          let comps = Loader.path_comps p in
          let joined = String.concat "." comps in
          if builtin_mutable comps then true
          else if Hashtbl.mem visiting joined then false
          else begin
            Hashtbl.add visiting joined ();
            let here =
              (match decl_find decls.has_mutable_field ~mod_comps comps with
              | Some b -> b
              | None -> false)
              || (match decl_find decls.records ~mod_comps comps with
                 | Some lds ->
                     List.exists
                       (fun (ld : Types.label_declaration) ->
                         go (depth + 1) ld.Types.ld_type)
                       lds
                 | None -> false)
              ||
              match decl_find decls.aliases ~mod_comps comps with
              | Some manifest -> go (depth + 1) manifest
              | None -> false
            in
            Hashtbl.remove visiting joined;
            here || List.exists (go (depth + 1)) args
          end)
      | _ -> false
  in
  go 0 ty

(* Does [ty] mention a Set/Map/Slice container (through aliases,
   tuples and type arguments)? The T1 sensitivity test. *)
let is_sensitive_type decls ~mod_comps ty =
  let visiting = Hashtbl.create 8 in
  let rec go depth ty =
    if depth > max_depth then false
    else
      match Types.get_desc ty with
      | Types.Ttuple tys -> List.exists (go (depth + 1)) tys
      | Types.Tconstr (p, args, _) -> (
          let comps = Loader.path_comps p in
          let joined = String.concat "." comps in
          if sensitive_head comps then true
          else if Hashtbl.mem visiting joined then false
          else begin
            Hashtbl.add visiting joined ();
            let here =
              match decl_find decls.aliases ~mod_comps comps with
              | Some manifest -> go (depth + 1) manifest
              | None -> false
            in
            Hashtbl.remove visiting joined;
            here || List.exists (go (depth + 1)) args
          end)
      | _ -> false
  in
  go 0 ty

let type_to_string ty =
  match Format.asprintf "%a" Printtyp.type_expr ty with
  | s -> s
  | exception _ -> "<type>"

let loc_pos (loc : Location.t) =
  let p = loc.loc_start in
  (p.Lexing.pos_fname, p.Lexing.pos_lnum, p.Lexing.pos_cnum - p.Lexing.pos_bol)

(* ------------------------------------------------------------------ *)
(* R1: free mutable captures of job closures                          *)
(* ------------------------------------------------------------------ *)

(* Idents bound anywhere inside [expr] (function parameters, lets,
   match cases). Loop indices of Texp_for are not collected — they
   are ints, which never satisfy the mutability test, so missing
   their binding cannot create a false positive. *)
let bound_idents expr =
  let bound = Hashtbl.create 32 in
  let pat : type k. Tast_iterator.iterator -> k Typedtree.general_pattern -> unit
      =
   fun it p ->
    List.iter
      (fun id -> Hashtbl.replace bound (Ident.unique_name id) ())
      (Typedtree.pat_bound_idents p);
    Tast_iterator.default_iterator.pat it p
  in
  let it = { Tast_iterator.default_iterator with pat } in
  it.expr it expr;
  bound

(* Free variables of [expr]: Pident references not bound inside it,
   with their value descriptions, first occurrence each. *)
let free_vars expr =
  let bound = bound_idents expr in
  let seen = Hashtbl.create 16 in
  let acc = ref [] in
  let e_iter (it : Tast_iterator.iterator) (e : Typedtree.expression) =
    (match e.exp_desc with
    | Typedtree.Texp_ident (Path.Pident id, _, vd) ->
        let key = Ident.unique_name id in
        if (not (Hashtbl.mem bound key)) && not (Hashtbl.mem seen key) then begin
          Hashtbl.add seen key ();
          acc := (id, vd, e.exp_loc) :: !acc
        end
    | _ -> ());
    Tast_iterator.default_iterator.expr it e
  in
  let it = { Tast_iterator.default_iterator with expr = e_iter } in
  it.expr it expr;
  List.rev !acc

(* The job argument of an executor-entry application: the first
   positional (Nolabel) argument — [f] in [Exec.map ~jobs f xs]. *)
let job_argument args =
  List.find_map
    (fun (label, arg) ->
      match (label, arg) with
      | Asttypes.Nolabel, Some e -> Some e
      | _ -> None)
    args

(* Every executor-entry application site in [expr]:
   (site location, job argument expression). *)
let exec_sites structure =
  let acc = ref [] in
  let e_iter (it : Tast_iterator.iterator) (e : Typedtree.expression) =
    (match e.exp_desc with
    | Typedtree.Texp_apply (head, args) -> (
        match head.exp_desc with
        | Typedtree.Texp_ident (p, _, _) when exec_entry (Loader.path_comps p)
          -> (
            match job_argument args with
            | Some job ->
                acc :=
                  (head.exp_loc, String.concat "." (Loader.path_comps p), job)
                  :: !acc
            | None -> ())
        | _ -> ())
    | _ -> ());
    Tast_iterator.default_iterator.expr it e
  in
  let it = { Tast_iterator.default_iterator with expr = e_iter } in
  it.structure it structure;
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Rule driver                                                        *)
(* ------------------------------------------------------------------ *)

let run ?(lib_prefix = "lib/") (loaded : Loader.t) =
  let decls = decl_tables loaded in
  let graph = Callgraph.build loaded in
  let findings = ref [] in
  let add ~loc ~rule ~message ~chain =
    let file, line, col = loc_pos loc in
    findings :=
      { (Lint_core.mk ~file ~line ~col ~rule ~message) with chain }
      :: !findings
  in

  (* ---- R1 + job-site collection (for R2) ---- *)
  let job_roots = ref [] in
  (* (site "file:line", canonical start names) *)
  List.iter
    (fun (u : Loader.unit_info) ->
      let mod_comps = u.mod_comps in
      let locals =
        (* Canonical names of this unit's toplevel bindings, for
           resolving bare-Pident job references and closure refs. *)
        Hashtbl.create 32
      in
      List.iter
        (fun n -> Hashtbl.replace locals n.Callgraph.name ())
        (Callgraph.unit_nodes graph u.modname);
      let resolve_ref p =
        match p with
        | Path.Pident id ->
            let name =
              String.concat "." (mod_comps @ [ Ident.name id ])
            in
            if Hashtbl.mem locals name then Some name else None
        | _ -> (
            match Loader.path_comps p with
            | [] -> None
            | comps -> Some (String.concat "." comps))
      in
      List.iter
        (fun (site_loc, entry, job) ->
          let file, line, _ = loc_pos site_loc in
          let site = Printf.sprintf "%s:%d" file line in
          (* Start names for R2: every identifier the job expression
             mentions (its body for a literal closure, the function
             itself for a named job). *)
          let starts =
            List.filter_map resolve_ref (Callgraph.references job)
          in
          job_roots := (site, starts) :: !job_roots;
          match job.Typedtree.exp_desc with
          | Typedtree.Texp_function _ ->
              List.iter
                (fun (id, (vd : Types.value_description), loc) ->
                  if is_mutable_type decls ~mod_comps vd.val_type then
                    add ~loc ~rule:"R1"
                      ~message:
                        (Printf.sprintf
                           "job closure passed to %s captures mutable state \
                            %s : %s defined outside the closure; jobs must \
                            not share unprotected state — guard it with \
                            Simkit.Exec.protect, make it job-local, or add \
                            (* lint: allow R1 — reason *)"
                           entry (Ident.name id)
                           (type_to_string vd.val_type))
                      ~chain:[])
                (free_vars job)
          | _ -> ())
        (exec_sites u.structure))
    loaded.units;

  (* ---- R2: toplevel mutable state in units reachable from jobs ---- *)
  let flagged_bindings = Hashtbl.create 16 in
  List.iter
    (fun (site, starts) ->
      let reached = Callgraph.reachable graph starts in
      (* Units touched by this job; iteration is name-sorted so the
         witness chain recorded per unit is deterministic. *)
      let touched = Hashtbl.create 16 in
      List.iter
        (fun (name, chain) ->
          match Callgraph.find graph name with
          | Some node ->
              let unit_src = node.Callgraph.source in
              if not (Hashtbl.mem touched unit_src) then
                Hashtbl.add touched unit_src chain
          | None -> ())
        (List.sort compare
           (Hashtbl.fold (fun k v acc -> (k, v) :: acc) reached []));
      List.iter
        (fun (u : Loader.unit_info) ->
          match Hashtbl.find_opt touched u.source with
          | None -> ()
          | Some chain ->
              List.iter
                (fun (item : Typedtree.structure_item) ->
                  match item.str_desc with
                  | Typedtree.Tstr_value (_, vbs) ->
                      List.iter
                        (fun (vb : Typedtree.value_binding) ->
                          List.iter
                            (fun (id, (idloc : string Location.loc), ty) ->
                              let key =
                                u.source ^ "." ^ Ident.name id
                              in
                              if
                                is_mutable_type decls ~mod_comps:u.mod_comps
                                  ty
                                && not (Hashtbl.mem flagged_bindings key)
                              then begin
                                Hashtbl.add flagged_bindings key ();
                                add ~loc:idloc.loc ~rule:"R2"
                                  ~message:
                                    (Printf.sprintf
                                       "toplevel mutable state %s : %s is \
                                        reachable from the parallel job at \
                                        %s; jobs must not share unprotected \
                                        state — guard it with \
                                        Simkit.Exec.protect, make it \
                                        job-local, or add (* lint: allow R2 \
                                        — reason *)"
                                       (Ident.name id) (type_to_string ty)
                                       site)
                                  ~chain
                              end)
                            (Typedtree.pat_bound_idents_full vb.vb_pat))
                        vbs
                  | _ -> ())
                u.structure.str_items)
        loaded.units)
    (List.sort compare (List.rev !job_roots));

  (* ---- P1: determinism taint on lib-exported values ---- *)
  let chains = Callgraph.taint graph ~seed:entropy_seed in
  List.iter
    (fun (u : Loader.unit_info) ->
      if String.starts_with ~prefix:lib_prefix u.source then
        let exported = Loader.exported loaded u.modname in
        List.iter
          (fun (node : Callgraph.node) ->
            let base =
              match String.rindex_opt node.name '.' with
              | Some i ->
                  String.sub node.name (i + 1)
                    (String.length node.name - i - 1)
              | None -> node.name
            in
            if List.mem base exported then
              match Hashtbl.find_opt chains node.name with
              | Some chain ->
                  add
                    ~loc:
                      {
                        Location.loc_start =
                          {
                            Lexing.pos_fname = node.source;
                            pos_lnum = node.line;
                            pos_bol = 0;
                            pos_cnum = 0;
                          };
                        loc_end =
                          {
                            Lexing.pos_fname = node.source;
                            pos_lnum = node.line;
                            pos_bol = 0;
                            pos_cnum = 0;
                          };
                        loc_ghost = false;
                      }
                    ~rule:"P1"
                    ~message:
                      (Printf.sprintf
                         "%s is exported from an .mli but transitively \
                          reaches the nondeterminism source %s; thread \
                          seeds/time through Run_config instead"
                         node.name
                         (List.nth chain (List.length chain - 1)))
                    ~chain
              | None -> ())
          (List.sort
             (fun a b -> String.compare a.Callgraph.name b.Callgraph.name)
             (Callgraph.unit_nodes graph u.modname)))
    loaded.units;

  (* ---- T1: typed polymorphic comparison ---- *)
  List.iter
    (fun (u : Loader.unit_info) ->
      let mod_comps = u.mod_comps in
      let e_iter (it : Tast_iterator.iterator) (e : Typedtree.expression) =
        (match e.exp_desc with
        | Typedtree.Texp_ident (p, _, _) when poly_compare p -> (
            match Types.get_desc e.exp_type with
            | Types.Tarrow (_, arg, _, _)
              when is_sensitive_type decls ~mod_comps arg ->
                add ~loc:e.exp_loc ~rule:"T1"
                  ~message:
                    (Printf.sprintf
                       "polymorphic %s instantiated at %s (a Set/Map/Slice \
                        value); use the typed comparators"
                       (String.concat "."
                          (Loader.path_comps p))
                       (type_to_string arg))
                  ~chain:[]
            | _ -> ())
        | _ -> ());
        Tast_iterator.default_iterator.expr it e
      in
      let it = { Tast_iterator.default_iterator with expr = e_iter } in
      it.structure it u.structure)
    loaded.units;

  List.sort Lint_core.compare_finding !findings
