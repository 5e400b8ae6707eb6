open Graphkit

let pid_set = Alcotest.testable Pid.Set.pp Pid.Set.equal

let test_roundtrip_fig1 () =
  match Parse.of_string (Parse.to_string Builtin.fig1) with
  | Ok g ->
      Alcotest.(check bool) "roundtrip identity" true
        (Digraph.equal g Builtin.fig1)
  | Error e -> Alcotest.failf "roundtrip failed: %s" e

let test_comments_and_blanks () =
  let text = "# a knowledge graph\n\n1: 2 5 # inline comment\n2: 4\n\n8:\n" in
  match Parse.of_string text with
  | Ok g ->
      Alcotest.check pid_set "succs of 1" (Pid.Set.of_list [ 2; 5 ])
        (Digraph.succs g 1);
      Alcotest.(check bool) "isolated 8 present" true (Digraph.mem_vertex 8 g);
      Alcotest.check pid_set "8 has no succs" Pid.Set.empty (Digraph.succs g 8)
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_errors_name_the_line () =
  (match Parse.of_string "1: 2\nnonsense\n" with
  | Error e ->
      Alcotest.(check bool) "line number in error" true
        (String.length e >= 6 && String.sub e 0 6 = "line 2")
  | Ok _ -> Alcotest.fail "expected parse error");
  match Parse.of_string "1: 2 x\n" with
  | Error e ->
      Alcotest.(check bool) "bad successor flagged" true
        (String.length e > 0)
  | Ok _ -> Alcotest.fail "expected bad successor error"

(* The single-pass scanner must keep the seed's exact error strings and
   its [int_of_string] token semantics (hex, a leading [+],
   underscores), except that a negative id is an error. *)
let test_malformed_inputs () =
  let err text = match Parse.of_string text with
    | Error e -> e
    | Ok _ -> Alcotest.failf "expected an error for %S" text
  in
  Alcotest.(check string) "missing colon"
    "line 1: expected 'vertex: succ...'" (err "42\n");
  Alcotest.(check string) "bad vertex id"
    "line 1: bad vertex id \"x1\"" (err "x1: 2\n");
  Alcotest.(check string) "empty vertex id"
    "line 1: bad vertex id \"\"" (err ": 2\n");
  Alcotest.(check string) "vertex with inner space"
    "line 1: bad vertex id \"1 2\"" (err "1 2: 3\n");
  Alcotest.(check string) "bad successor id"
    "line 1: bad successor id" (err "1: 2 y\n");
  Alcotest.(check string) "second colon poisons successor"
    "line 1: bad successor id" (err "1: 2:3\n");
  Alcotest.(check string) "line numbers count blanks and comments"
    "line 4: bad successor id" (err "# header\n\n1: 2\n2: z\n");
  Alcotest.(check string) "negative successor id"
    "line 1: bad successor id" (err "1: 0x10 +2 -3 1_0\n");
  Alcotest.(check string) "negative vertex id"
    "line 1: bad vertex id \"-1\"" (err "-1: 2\n");
  (* Accepted edge cases, unchanged from the seed parser. *)
  let ok text = match Parse.of_string text with
    | Ok g -> g
    | Error e -> Alcotest.failf "expected %S to parse: %s" text e
  in
  let g = ok "1: 0x10 +2 1_0\n" in
  Alcotest.check pid_set "int_of_string successor forms"
    (Pid.Set.of_list [ 16; 2; 10 ])
    (Digraph.succs g 1);
  let g = ok "  7  :\t8   9 # tail\n" in
  Alcotest.check pid_set "whitespace-heavy line"
    (Pid.Set.of_list [ 8; 9 ])
    (Digraph.succs g 7);
  Alcotest.(check bool) "huge id falls back to int_of_string" true
    (match Parse.of_string "1: 99999999999999999999999999\n" with
    | Error _ -> true
    | Ok _ -> false)

(* A path that cannot be read, a directory included, is an [Error]
   naming the path, not an escaping [Sys_error]. *)
let test_of_file_missing () =
  List.iter
    (fun path ->
      match Parse.of_file path with
      | Error e ->
          Alcotest.(check bool)
            (Printf.sprintf "%S names the path" e)
            true
            (String.starts_with ~prefix:(path ^ ": ") e)
      | Ok _ -> Alcotest.failf "expected an error for %S" path)
    [ "/nonexistent/graph.txt"; Filename.current_dir_name ]

let prop_roundtrip_random =
  QCheck.Test.make ~count:100 ~name:"parse roundtrip on random graphs"
    QCheck.(list_of_size (QCheck.Gen.int_bound 20) (pair (int_bound 9) (int_bound 9)))
    (fun edges ->
      let g = Digraph.of_edges edges in
      match Parse.of_string (Parse.to_string g) with
      | Ok g' -> Digraph.equal g g'
      | Error _ -> false)

let suites =
  [
    ( "parse",
      [
        Alcotest.test_case "fig1 roundtrip" `Quick test_roundtrip_fig1;
        Alcotest.test_case "comments and blanks" `Quick
          test_comments_and_blanks;
        Alcotest.test_case "errors name the line" `Quick
          test_errors_name_the_line;
        Alcotest.test_case "malformed inputs" `Quick test_malformed_inputs;
        Alcotest.test_case "missing file" `Quick test_of_file_missing;
        QCheck_alcotest.to_alcotest prop_roundtrip_random;
      ] );
  ]
