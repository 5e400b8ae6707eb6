(* Obs.Json.of_string edge cases and a property-based round trip.

   The parser is the analysis daemon's request decoder, so its corner
   behaviour is contract: escape handling, nesting depth, int
   boundaries, and the documented trailing-garbage error all get
   pinned here. The qcheck property drives random documents through
   [of_string (to_string j) = j]; float generation avoids integral
   values because the %.12g writer prints them without a fraction, so
   they legitimately re-parse as [Int] (that collapse is itself pinned
   as a unit case below). *)

module J = Obs.Json

let ok s =
  match J.of_string s with
  | Ok j -> j
  | Error e -> Alcotest.failf "expected %S to parse, got error: %s" s e

let err s =
  match J.of_string s with
  | Ok _ -> Alcotest.failf "expected %S to be rejected" s
  | Error _ -> ()

let test_escapes () =
  Alcotest.(check string)
    "escaped quote" {|say "hi"|}
    (match ok {|"say \"hi\""|} with J.String s -> s | _ -> "<not a string>");
  Alcotest.(check string)
    "escaped backslash" {|a\b|}
    (match ok {|"a\\b"|} with J.String s -> s | _ -> "<not a string>");
  Alcotest.(check string)
    "ascii \\u escape decodes" "A"
    (match ok "\"\\u0041\"" with J.String s -> s | _ -> "<not a string>");
  Alcotest.(check string)
    "non-ascii \\u escape survives as literal text" "\\u00e9"
    (match ok "\"\\u00e9\"" with J.String s -> s | _ -> "<not a string>");
  Alcotest.(check string)
    "control escapes" "a\tb\nc"
    (match ok {|"a\tb\nc"|} with J.String s -> s | _ -> "<not a string>");
  err {|"unterminated|};
  err {|"bad \q escape"|}

let test_deep_nesting () =
  let depth = 512 in
  let s =
    String.concat "" (List.init depth (fun _ -> "["))
    ^ "7"
    ^ String.concat "" (List.init depth (fun _ -> "]"))
  in
  let rec depth_of = function
    | J.List [ inner ] -> 1 + depth_of inner
    | J.Int 7 -> 0
    | _ -> Alcotest.fail "unexpected shape"
  in
  Alcotest.(check int) "512 levels of arrays" depth (depth_of (ok s))

(* Past 512 levels the reader answers [Error] instead of recursing on:
   a 100,000-deep request line must not exhaust the stack, whatever
   its size. Objects count towards the bound like arrays. *)
let test_nesting_bound () =
  let nested depth = String.make depth '[' ^ String.make depth ']' in
  ignore (ok (nested 512));
  err (nested 513);
  err (String.make 100_000 '[');
  err (String.concat "" (List.init 513 (fun _ -> {|{"a":|})))

let test_int_boundaries () =
  Alcotest.(check bool)
    "max_int round-trips" true
    (ok (string_of_int max_int) = J.Int max_int);
  Alcotest.(check bool)
    "min_int round-trips" true
    (ok (string_of_int min_int) = J.Int min_int);
  (* An integral float serializes without "." under %.12g, so it comes
     back as Int — the documented (and deliberate) asymmetry. *)
  Alcotest.(check bool)
    "integral float collapses to Int" true
    (ok (J.to_string (J.Float 3.0)) = J.Int 3)

let test_trailing_garbage () =
  err "{} x";
  err "1 2";
  err "[1,2] ,";
  (* ... but trailing whitespace is fine. *)
  Alcotest.(check bool) "trailing spaces ok" true (ok "42  \n " = J.Int 42)

(* Generator for documents the writer round-trips exactly: every float
   is nudged off integral values. *)
let gen_json =
  let open QCheck.Gen in
  let scalar =
    oneof
      [
        return J.Null;
        map (fun b -> J.Bool b) bool;
        map (fun i -> J.Int i) small_signed_int;
        map
          (fun f ->
            let f = Float.of_int (int_of_float f) +. 0.5 in
            J.Float f)
          (float_bound_inclusive 1000.0);
        map (fun s -> J.String s) (string_size ~gen:printable (int_bound 8));
      ]
  in
  sized @@ fix (fun self n ->
      if n <= 0 then scalar
      else
        frequency
          [
            (2, scalar);
            (1, map (fun l -> J.List l) (list_size (int_bound 4) (self (n / 2))));
            ( 1,
              map
                (fun kvs -> J.Obj kvs)
                (list_size (int_bound 4)
                   (pair (string_size ~gen:printable (int_bound 6)) (self (n / 2))))
            );
          ])

let prop_round_trip =
  QCheck.Test.make ~count:500 ~name:"of_string (to_string j) = j"
    (QCheck.make gen_json)
    (fun j -> J.of_string (J.to_string j) = Ok j)

let suites =
  [
    ( "json-fuzz",
      [
        Alcotest.test_case "string escapes" `Quick test_escapes;
        Alcotest.test_case "deeply nested arrays" `Quick test_deep_nesting;
        Alcotest.test_case "nesting past 512 is an error" `Quick
          test_nesting_bound;
        Alcotest.test_case "int boundaries" `Quick test_int_boundaries;
        Alcotest.test_case "trailing garbage rejected" `Quick
          test_trailing_garbage;
        QCheck_alcotest.to_alcotest prop_round_trip;
      ] );
  ]
