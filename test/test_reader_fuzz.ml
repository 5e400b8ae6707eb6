(* Both line readers, [Parse.of_string] for graphs and
   [Fbas_io.of_string] for slice systems, on printed random values
   after up to four byte edits. Every input comes back as a value or
   as an error naming one of its lines, never as an exception (qcheck
   fails a property that raises). An accepted value names only ids in
   [[0, 2^20)], has no negative threshold, and prints back to itself. *)

open Graphkit
open Fbqs

(* Edits insert, delete or replace a byte, drawing what they write from
   the bytes the grammars read, letters, and two ids past the bound. *)
let piece =
  QCheck.Gen.(
    let char_from c n =
      map (fun k -> String.make 1 (Char.chr (Char.code c + k))) (int_bound n)
    in
    oneof
      [
        char_from '0' 9;
        char_from 'a' 25;
        oneofl [ " "; "\t"; "\n"; "#"; ":"; "{"; "}"; "-" ];
        oneofl [ "1048576"; "1000000000000" ];
      ])

let edit text =
  QCheck.Gen.(
    let n = String.length text in
    let* at = int_bound n in
    let* p = piece in
    let+ kind = oneofl [ `Insert; `Delete; `Replace ] in
    let rest k = String.sub text (at + k) (n - at - k) in
    match kind with
    | `Delete when at < n -> String.sub text 0 at ^ rest 1
    | `Replace when at < n -> String.sub text 0 at ^ p ^ rest 1
    | _ -> String.sub text 0 at ^ p ^ rest 0)

let edited print gen =
  let gen =
    QCheck.Gen.(
      let* text = map print gen in
      let* k = int_bound 4 in
      let rec go k text =
        if k = 0 then return text else edit text >>= go (k - 1)
      in
      go k text)
  in
  QCheck.make ~print:(Printf.sprintf "%S") gen

let id =
  QCheck.Gen.(frequency [ (9, int_bound 12); (1, return (Parse.id_bound - 1)) ])

let gen_graph =
  QCheck.Gen.(
    map Digraph.of_adjacency
      (list_size (int_bound 8) (pair id (list_size (int_bound 4) id))))

let gen_system =
  QCheck.Gen.(
    let set = map Pid.Set.of_list (list_size (int_bound 4) id) in
    let threshold members threshold = Slice.threshold ~members ~threshold in
    let slice =
      oneof
        [
          map Slice.explicit (list_size (int_bound 3) set);
          map2 threshold set (int_range 0 5);
        ]
    in
    map Quorum.system_of_list (list_size (int_bound 8) (pair id slice)))

let in_bound i = 0 <= i && i < Parse.id_bound

(* [e] reads [line N: ...] with [N] one of the lines of [text]. *)
let names_a_line text e =
  match String.index_opt e ':' with
  | Some i
    when String.starts_with ~prefix:"line " e
         && i + 1 < String.length e
         && e.[i + 1] = ' ' -> (
      match int_of_string_opt (String.sub e 5 (i - 5)) with
      | Some n -> 1 <= n && n <= List.length (String.split_on_char '\n' text)
      | None -> false)
  | _ -> false

let prop_graph =
  QCheck.Test.make ~count:2000 ~name:"graph reader on edited inputs"
    (edited Parse.to_string gen_graph) (fun text ->
      match Parse.of_string text with
      | Error e -> names_a_line text e
      | Ok g -> (
          Pid.Set.for_all in_bound (Digraph.vertices g)
          &&
          match Parse.of_string (Parse.to_string g) with
          | Ok g' -> Digraph.equal g g'
          | Error _ -> false))

let slice_ok = function
  | Slice.Explicit slices -> List.for_all (Pid.Set.for_all in_bound) slices
  | Slice.Threshold { members; threshold } ->
      threshold >= 0 && Pid.Set.for_all in_bound members

let prop_fbas =
  QCheck.Test.make ~count:2000 ~name:"FBAS reader on edited inputs"
    (edited Fbas_io.to_string gen_system) (fun text ->
      match Fbas_io.of_string text with
      | Error e -> names_a_line text e
      | Ok sys -> (
          Pid.Map.for_all (fun i s -> in_bound i && slice_ok s) sys
          &&
          match Fbas_io.of_string (Fbas_io.to_string sys) with
          | Ok sys' -> Pid.Map.equal Slice.equal sys sys'
          | Error _ -> false))

let suites =
  [
    ( "reader-fuzz",
      [
        QCheck_alcotest.to_alcotest prop_graph;
        QCheck_alcotest.to_alcotest prop_fbas;
      ] );
  ]
