(* Graphkit.Rng is a port of OCaml 5.1's Random.State. On OCaml 5 its
   draws are checked against the stdlib's; on every compiler against
   answers copied from OCaml 5.1.1's Random.State, which is what checks
   the port on 4.14. *)

open Graphkit

let on_ocaml_5 = Scanf.sscanf Sys.ocaml_version "%d." (fun major -> major >= 5)

(* Seed arrays of 1 to 5 entries, small or anywhere in the int range
   (negative and above 2^30 alike), and 100 bounds per seed up to
   2^30 - 1: 1,000 cases of 300 draws each. *)
let gen_case =
  QCheck.Gen.(
    pair
      (array_size (int_range 1 5) (oneof [ small_signed_int; int ]))
      (list_repeat 100
         (oneof [ int_range 1 10; int_range 1 ((1 lsl 30) - 1) ])))

let prop_matches_stdlib =
  QCheck.Test.make ~count:1000 ~name:"int, float, bool = Random.State's"
    (QCheck.make ~print:QCheck.Print.(pair (array int) (list int)) gen_case)
    (fun (seed, bounds) ->
      let r = Random.State.make seed and t = Rng.make seed in
      List.for_all
        (fun bound ->
          Random.State.int r bound = Rng.int t bound
          && Float.equal
               (Random.State.float r (float bound))
               (Rng.float t (float bound))
          && Bool.equal (Random.State.bool r) (Rng.bool t))
        bounds)

(* 4.14's Random.State draws another stream, so there the property
   has nothing to compare with. *)
let test_matches_stdlib =
  let name, speed, run = QCheck_alcotest.to_alcotest prop_matches_stdlib in
  (name, speed, fun () -> if on_ocaml_5 then run () else Alcotest.skip ())

(* The first draws of each function on a fresh state, from OCaml
   5.1.1's Random.State: the seed Delay.partial_synchrony makes at seed
   1, Delay.synchronous's, and one with a negative entry and one above
   2^30. *)
let known_answers =
  [
    ( [| 1; 0xde1a |],
      [ 133; 617; 704; 482; 928 ],
      [ 940113133; 962750617; 227601704 ],
      [ 0x1.48da3d8af011fp-1; 0x1.41b22df1f2c4dp-1; 0x1.a6905ec21b21dp-1 ],
      [ true; true; true; false; true; true; true; true ] );
    ( [| 0 |],
      [ 518; 504; 87; 272; 384 ],
      [ 51205518; 143567504; 373210087 ],
      [ 0x1.47f4f9d90c354p-2; 0x1.e033ad13911d5p-1; 0x1.749de80358faep-2 ],
      [ false; true; false; true; false; true; true; true ] );
    ( [| -7; 1 lsl 40; 0x6f5 |],
      [ 691; 911; 948; 347; 465 ],
      [ 134720691; 638700911; 338456948 ],
      [ 0x1.0c8bcedd201eap-2; 0x1.3633504498472p-2; 0x1.f98153152858ep-1 ],
      [ false; false; true; true; false; false; true; true ] );
  ]

let test_known_answers () =
  List.iter
    (fun (seed, ints, bigs, floats, bools) ->
      let draws n f =
        let t = Rng.make seed in
        List.init n (fun _ -> f t)
      in
      let name what =
        Printf.sprintf "[|%s|] %s"
          (String.concat "; " (Array.to_list (Array.map string_of_int seed)))
          what
      in
      Alcotest.(check (list int))
        (name "int 1000") ints
        (draws 5 (fun t -> Rng.int t 1000));
      Alcotest.(check (list int))
        (name "int (2^30 - 1)") bigs
        (draws 3 (fun t -> Rng.int t ((1 lsl 30) - 1)));
      Alcotest.(check (list (float 0.)))
        (name "float 1") floats
        (draws 3 (fun t -> Rng.float t 1.));
      Alcotest.(check (list bool)) (name "bool") bools (draws 8 Rng.bool))
    known_answers

let test_no_allocation () =
  let t = Rng.make [| 1; 0xde1a |] in
  let sum = ref 0 in
  let before = Gc.minor_words () in
  for _ = 1 to 100_000 do
    sum := !sum + Rng.int t 1000
  done;
  let words = Gc.minor_words () -. before in
  ignore (Sys.opaque_identity !sum);
  Alcotest.(check (float 0.)) "minor words" 0. words

let test_bounds () =
  let t = Rng.make [| 0 |] in
  List.iter
    (fun bound ->
      Alcotest.check_raises (Printf.sprintf "bound %d" bound)
        (Invalid_argument "Rng.int") (fun () -> ignore (Rng.int t bound)))
    [ 0; -1; 1 lsl 30; max_int ];
  Alcotest.(check int) "bound 1" 0 (Rng.int t 1)

let suites =
  [
    ( "rng",
      [
        test_matches_stdlib;
        Alcotest.test_case "known answers" `Quick test_known_answers;
        Alcotest.test_case "10^5 int draws allocate nothing" `Quick
          test_no_allocation;
        Alcotest.test_case "int refuses bounds outside (0, 2^30)" `Quick
          test_bounds;
      ] );
  ]
