(* Typed-phase lint self-tests over the compiled typed_fixtures
   corpus. Unlike the syntactic fixtures, these files really compile:
   the rules read the .cmt files dune produced for the
   typed_fixtures library out of the build tree, exactly as the
   driver does with --cmt. *)

let cmt_dir = Filename.concat "typed_fixtures" ".typed_fixtures.objs/byte"
let loaded = lazy (Loader.load_dir cmt_dir)

let findings =
  lazy (Rules_typed.run ~lib_prefix:"test/typed_fixtures/" (Lazy.force loaded))

let by_rule rule =
  List.filter (fun (f : Lint_core.finding) -> f.rule = rule) (Lazy.force findings)

let basename (f : Lint_core.finding) = Filename.basename f.file

let mentions needle (f : Lint_core.finding) =
  let msg = f.message in
  let n = String.length needle and m = String.length msg in
  let rec go i = i + n <= m && (String.sub msg i n = needle || go (i + 1)) in
  go 0

let basename_source (u : Loader.unit_info) = Filename.basename u.Loader.source

let test_loader () =
  let l = Lazy.force loaded in
  Alcotest.(check bool)
    "all five fixture units load" true
    (List.length l.Loader.units = 5);
  let p1_chain =
    List.find
      (fun (u : Loader.unit_info) -> basename_source u = "p1_chain.ml")
      l.Loader.units
  in
  Alcotest.(check (list string))
    "p1_chain exports come from its cmti" [ "pure"; "stamp" ]
    (List.sort String.compare (Loader.exported l p1_chain.Loader.modname))

let test_r1 () =
  let r1 = by_rule "R1" in
  Alcotest.(check bool)
    "every R1 hit is in r1_cases.ml" true
    (List.for_all (fun f -> basename f = "r1_cases.ml") r1);
  Alcotest.(check bool)
    "captured Hashtbl [table] is flagged" true
    (List.exists (mentions "table") r1);
  Alcotest.(check bool)
    "captured ref [seen] is flagged through Pool.map_persistent" true
    (List.exists (mentions "seen") r1);
  Alcotest.(check bool)
    "Core.Cache capture is exempt" false
    (List.exists (mentions "cache") r1);
  Alcotest.(check bool)
    "closure-local Hashtbl is not a capture" false
    (List.exists (mentions "h :") r1)

let test_r2 () =
  let r2 = by_rule "R2" in
  let counter =
    List.filter (fun f -> basename f = "r2_state.ml" && mentions "counter" f) r2
  in
  Alcotest.(check int) "job-reachable counter flagged once" 1
    (List.length counter);
  Alcotest.(check bool)
    "witness chain reaches R2_state" true
    (match counter with
    | [ f ] ->
        f.chain <> []
        && List.exists
             (fun hop ->
               String.length hop >= 8
               && String.sub hop (String.length hop - 4) 4 = "bump")
             f.chain
    | _ -> false);
  Alcotest.(check bool)
    "immutable toplevel [limit] is not flagged" false
    (List.exists (mentions "limit ") r2);
  Alcotest.(check bool)
    "Core.Cache toplevel state is exempt" false
    (List.exists (mentions "cache :") r2)

let test_p1 () =
  let p1 = by_rule "P1" in
  Alcotest.(check int) "exactly one exported tainted value" 1 (List.length p1);
  match p1 with
  | [ f ] ->
      Alcotest.(check string) "reported in p1_chain.ml" "p1_chain.ml"
        (basename f);
      Alcotest.(check bool) "names stamp" true (mentions "stamp" f);
      Alcotest.(check bool)
        "chain is >= 2 hops deep (stamp -> helper -> wall -> source)" true
        (List.length f.chain >= 4);
      Alcotest.(check bool)
        "chain ends at the entropy source" true
        (match List.rev f.chain with
        | last :: _ -> last = "Unix.gettimeofday"
        | [] -> false)
  | _ -> ()

let test_t1_catches_what_d3_misses () =
  let t1 = by_rule "T1" in
  let in_alias = List.filter (fun f -> basename f = "t1_alias.ml") t1 in
  Alcotest.(check int)
    "aliased (=), partial-application compare and Hashtbl.hash all fire" 3
    (List.length in_alias);
  Alcotest.(check bool)
    "dedicated Set.equal and int compare stay silent" true
    (List.length t1 = List.length in_alias);
  (* The same source through the syntactic phase: D3 judges argument
     heads only, so the alias hides every site from it. *)
  let syntactic =
    Rules_syntactic.lint_source ~rel:"lib/cup/t1_alias.ml"
      (Filename.concat "typed_fixtures" "t1_alias.ml")
  in
  let d3 =
    List.filter
      (fun (f : Lint_core.finding) -> f.rule = "D3")
      (syntactic.active @ syntactic.suppressed)
  in
  Alcotest.(check int) "D3 is provably blind to all of them" 0 (List.length d3)

let test_sarif () =
  let gating =
    [
      {
        (Lint_core.mk ~file:"lib/x.ml" ~line:3 ~col:1 ~rule:"P1" ~message:"m")
        with
        chain = [ "a"; "b" ];
      };
    ]
  and baselined =
    [ Lint_core.mk ~file:"lib/y.ml" ~line:7 ~col:0 ~rule:"D1" ~message:"n" ]
  in
  match Lint_core.sarif_doc ~gating ~baselined ~suppressed:[] with
  | Obs.Json.Obj fields ->
      Alcotest.(check bool)
        "sarif version pinned" true
        (List.assoc_opt "version" fields = Some (Obs.Json.String "2.1.0"));
      let results =
        match List.assoc "runs" fields with
        | Obs.Json.List [ Obs.Json.Obj run ] -> (
            match List.assoc "results" run with
            | Obs.Json.List rs -> rs
            | _ -> [])
        | _ -> []
      in
      Alcotest.(check int) "one result per finding" 2 (List.length results);
      let levels =
        List.filter_map
          (function
            | Obs.Json.Obj r -> (
                match List.assoc_opt "level" r with
                | Some (Obs.Json.String l) -> Some l
                | _ -> None)
            | _ -> None)
          results
      in
      Alcotest.(check (list string))
        "gating is error, baselined is note" [ "error"; "note" ] levels
  | _ -> Alcotest.fail "sarif_doc did not produce an object"

let suites =
  [
    ( "lint-typed",
      [
        Alcotest.test_case "loader reads the fixture cmts" `Quick test_loader;
        Alcotest.test_case "R1 capture positives and exemptions" `Quick test_r1;
        Alcotest.test_case "R2 job-reachable toplevel state" `Quick test_r2;
        Alcotest.test_case "P1 taint chain on exported value" `Quick test_p1;
        Alcotest.test_case "T1 fires where D3 is blind" `Quick
          test_t1_catches_what_d3_misses;
        Alcotest.test_case "SARIF rendering" `Quick test_sarif;
      ] );
  ]
