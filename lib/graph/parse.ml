(* The reader both line-based formats share: this graph format and
   [Fbqs.Fbas_io]'s slice systems. Process ids index the dense kernels
   (DESIGN.md §8), which size themselves by the largest id, so a
   negative or huge one is a line-numbered error here rather than a
   second code path, or a gigabyte allocation, in every kernel. *)

let id_bound = 1 lsl 20

(* [String.trim]'s whitespace, so trimming and tokenizing agree. Every
   such byte is at most [' '], so most bytes take one comparison. *)
let[@inline] is_space c =
  c <= ' ' && (c = ' ' || c = '\t' || c = '\n' || c = '\r' || c = '\012')

let fold_lines f init text =
  let rec go lineno acc = function
    | [] -> Ok acc
    | line :: rest -> (
        let line =
          match String.index_opt line '#' with
          | Some i -> String.sub line 0 i
          | None -> line
        in
        match String.trim line with
        | "" -> go (lineno + 1) acc rest
        | line -> (
            match f line acc with
            | Ok acc -> go (lineno + 1) acc rest
            | Error e -> Error (Printf.sprintf "line %d: %s" lineno e)))
  in
  go 1 init (String.split_on_char '\n' text)

(* Right to left, so the list comes out in order. *)
let tokens line =
  let rec skip acc j =
    if j > 0 && is_space line.[j - 1] then skip acc (j - 1) else word acc j j
  and word acc i j =
    if i > 0 && not (is_space line.[i - 1]) then word acc (i - 1) j
    else if i = j then acc
    else skip (String.sub line i (j - i) :: acc) i
  in
  skip [] (String.length line)

type id = Id of int | Too_large of int | Not_an_id

let id tok =
  match int_of_string_opt tok with
  | Some i when i >= 0 -> if i < id_bound then Id i else Too_large i
  | _ -> Not_an_id

(* One row per line, [vertex: succ...]; the graph is built once from
   all of them. *)
let row line rows =
  match String.index_opt line ':' with
  | None -> Error "expected 'vertex: succ...'"
  | Some colon -> (
      let v = String.trim (String.sub line 0 colon) in
      match id v with
      | Not_an_id -> Error (Printf.sprintf "bad vertex id %S" v)
      | Too_large v ->
          Error (Printf.sprintf "vertex id %d is not below %d" v id_bound)
      | Id v ->
          let rec succs acc = function
            | [] -> Ok ((v, acc) :: rows)
            | tok :: rest -> (
                match id tok with
                | Id s -> succs (s :: acc) rest
                | Too_large s ->
                    Error
                      (Printf.sprintf "successor id %d is not below %d" s
                         id_bound)
                | Not_an_id -> Error "bad successor id")
          in
          succs []
            (tokens
               (String.sub line (colon + 1) (String.length line - colon - 1))))

let of_string text =
  Result.map Digraph.of_adjacency (fold_lines row [] text)

let parse_file parse path =
  let text =
    match open_in_bin path with
    | exception Sys_error msg -> Error msg (* already "<path>: <reason>" *)
    | ic ->
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            match really_input_string ic (in_channel_length ic) with
            | text -> Ok text
            | exception Sys_error msg -> Error (path ^ ": " ^ msg))
  in
  Result.bind text (fun text ->
      Result.map_error (fun e -> path ^ ": " ^ e) (parse text))

let of_file = parse_file of_string

let to_string g =
  let buf = Buffer.create 128 in
  Pid.Set.iter
    (fun v ->
      Buffer.add_string buf (string_of_int v);
      Buffer.add_char buf ':';
      Pid.Set.iter
        (fun s ->
          Buffer.add_char buf ' ';
          Buffer.add_string buf (string_of_int s))
        (Digraph.succs g v);
      Buffer.add_char buf '\n')
    (Digraph.vertices g);
  Buffer.contents buf
