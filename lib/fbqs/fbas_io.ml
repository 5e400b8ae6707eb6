open Graphkit

(* One line per process, ascending pid order on output:

     # comment
     0 threshold 4 of 0 1 2 3 5
     1 slices { 0 1 2 } { 1 2 4 }
     2 none

   Whitespace-separated tokens; blank lines and '#' lines are
   ignored. The format is the on-disk shape of [Quorum.system], so a
   parse/print round trip is the identity (property-tested in
   test/test_enum.ml). *)

let header = "# stellar-cup fbas v1"

let to_buffer buf sys =
  Buffer.add_string buf header;
  Buffer.add_char buf '\n';
  Pid.Map.iter
    (fun i slice ->
      Buffer.add_string buf (string_of_int i);
      (match slice with
      | Slice.Explicit [] -> Buffer.add_string buf " none"
      | Slice.Explicit slices ->
          Buffer.add_string buf " slices";
          List.iter
            (fun s ->
              Buffer.add_string buf " {";
              Pid.Set.iter
                (fun j ->
                  Buffer.add_char buf ' ';
                  Buffer.add_string buf (string_of_int j))
                s;
              Buffer.add_string buf " }")
            slices
      | Slice.Threshold { members; threshold } ->
          Buffer.add_string buf " threshold ";
          Buffer.add_string buf (string_of_int threshold);
          Buffer.add_string buf " of";
          Pid.Set.iter
            (fun j ->
              Buffer.add_char buf ' ';
              Buffer.add_string buf (string_of_int j))
            members);
      Buffer.add_char buf '\n')
    sys

let to_string sys =
  let buf = Buffer.create 4096 in
  to_buffer buf sys;
  Buffer.contents buf

let to_file path sys =
  let oc = open_out_bin path in
  output_string oc (to_string sys);
  close_out oc

let tokens line =
  String.split_on_char ' ' line |> List.filter (fun t -> t <> "")

(* Process ids index the dense kernels (DESIGN.md §8), so a negative
   one is refused here rather than by every kernel downstream. *)
let parse_pid lineno tok =
  match int_of_string_opt tok with
  | Some i when i >= 0 -> Ok i
  | _ -> Error (Printf.sprintf "line %d: %S is not a process id" lineno tok)

(* [{ 1 2 } { 3 }] -> explicit slice list *)
let parse_slices lineno toks =
  let rec outer acc = function
    | [] -> Ok (List.rev acc)
    | "{" :: rest -> inner Pid.Set.empty acc rest
    | tok :: _ ->
        Error (Printf.sprintf "line %d: expected '{', found %S" lineno tok)
  and inner cur acc = function
    | "}" :: rest -> outer (cur :: acc) rest
    | [] -> Error (Printf.sprintf "line %d: unclosed '{'" lineno)
    | tok :: rest -> (
        match parse_pid lineno tok with
        | Ok i -> inner (Pid.Set.add i cur) acc rest
        | Error _ as e -> e)
  in
  outer [] toks

let parse_line lineno line =
  match tokens line with
  | [] -> Ok None
  | pid_tok :: rest -> (
      match parse_pid lineno pid_tok with
      | Error _ as e -> e
      | Ok pid -> (
          match rest with
          | [ "none" ] -> Ok (Some (pid, Slice.Explicit []))
          | "slices" :: toks -> (
              match parse_slices lineno toks with
              | Ok [] ->
                  Error
                    (Printf.sprintf "line %d: 'slices' needs at least one {...}"
                       lineno)
              | Ok slices -> Ok (Some (pid, Slice.Explicit slices))
              | Error e -> Error e)
          | "threshold" :: t :: "of" :: members -> (
              match int_of_string_opt t with
              | None ->
                  Error
                    (Printf.sprintf "line %d: threshold %S is not an integer"
                       lineno t)
              | Some threshold -> (
                  let rec collect acc = function
                    | [] -> Ok acc
                    | tok :: rest -> (
                        match parse_pid lineno tok with
                        | Ok i -> collect (Pid.Set.add i acc) rest
                        | Error _ as e -> e)
                  in
                  match collect Pid.Set.empty members with
                  | Ok members ->
                      Ok (Some (pid, Slice.Threshold { members; threshold }))
                  | Error e -> Error e))
          | _ ->
              Error
                (Printf.sprintf
                   "line %d: expected 'none', 'slices {...}...' or 'threshold \
                    T of ...'"
                   lineno)))

let of_string text =
  let lines = String.split_on_char '\n' text in
  let rec go lineno sys = function
    | [] -> Ok sys
    | line :: rest -> (
        let line = String.trim line in
        if line = "" || line.[0] = '#' then go (lineno + 1) sys rest
        else
          match parse_line lineno line with
          | Ok None -> go (lineno + 1) sys rest
          | Ok (Some (pid, slice)) ->
              if Pid.Map.mem pid sys then
                Error (Printf.sprintf "line %d: duplicate process %d" lineno pid)
              else go (lineno + 1) (Pid.Map.add pid slice sys) rest
          | Error e -> Error e)
  in
  go 1 Pid.Map.empty lines

let of_file = Parse.parse_file of_string
