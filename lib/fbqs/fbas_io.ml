open Graphkit

(* One line per process, ascending pid order on output:

     # comment
     0 threshold 4 of 0 1 2 3 5
     1 slices { 0 1 2 } { 1 2 4 }
     2 none

   Whitespace-separated tokens; blank lines and '#' comments are
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

let ( let* ) = Result.bind

(* Line splitting, comments, tokens and the id rule are [Parse]'s; this
   is the grammar of one line, whose errors [Parse.fold_lines] numbers.
   [not_a_pid tok v] words the classifier's verdict [v] on a token that
   is not an id. *)
let not_a_pid tok = function
  | Parse.Too_large i ->
      Error (Printf.sprintf "process id %d is not below %d" i Parse.id_bound)
  | Id _ | Not_an_id -> Error (Printf.sprintf "%S is not a process id" tok)

(* [{ 1 2 } { 3 }] -> explicit slice list *)
let slices toks =
  let rec outer acc = function
    | [] -> Ok (List.rev acc)
    | "{" :: rest -> inner Pid.Set.empty acc rest
    | tok :: _ -> Error (Printf.sprintf "expected '{', found %S" tok)
  and inner cur acc = function
    | "}" :: rest -> outer (cur :: acc) rest
    | [] -> Error "unclosed '{'"
    | tok :: rest -> (
        match Parse.id tok with
        | Id i -> inner (Pid.Set.add i cur) acc rest
        | v -> not_a_pid tok v)
  in
  outer [] toks

let rec members acc = function
  | [] -> Ok acc
  | tok :: rest -> (
      match Parse.id tok with
      | Id i -> members (Pid.Set.add i acc) rest
      | v -> not_a_pid tok v)

let slice = function
  | [ "none" ] -> Ok (Slice.explicit [])
  | "slices" :: toks -> (
      match slices toks with
      | Ok [] -> Error "'slices' needs at least one {...}"
      | r -> Result.map Slice.explicit r)
  | "threshold" :: t :: "of" :: toks -> (
      match int_of_string_opt t with
      | None -> Error (Printf.sprintf "threshold %S is not an integer" t)
      | Some t when t < 0 -> Error (Printf.sprintf "threshold %d is negative" t)
      | Some threshold ->
          let* members = members Pid.Set.empty toks in
          Ok (Slice.threshold ~members ~threshold))
  | _ -> Error "expected 'none', 'slices {...}...' or 'threshold T of ...'"

let entry line sys =
  match Parse.tokens line with
  | [] -> Ok sys
  | tok :: rest -> (
      match Parse.id tok with
      | Id owner ->
          let* slice = slice rest in
          if Pid.Map.mem owner sys then
            Error (Printf.sprintf "duplicate process %d" owner)
          else Ok (Pid.Map.add owner slice sys)
      | v -> not_a_pid tok v)

let of_string = Parse.fold_lines entry Pid.Map.empty

let of_file = Parse.parse_file of_string
