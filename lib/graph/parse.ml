(* A single-pass scanner over the raw text: line splitting, comment
   stripping, trimming and token parsing all work on index ranges into
   the input, so a parse allocates nothing per line beyond the graph
   itself (the seed split/trim/filter_map pipeline allocated several
   intermediate strings and lists per line). Ids are read with
   [int_of_string] semantics (so [+2], hex and underscored forms
   parse) and must come out non-negative: process ids index the dense
   kernels (DESIGN.md §8), so a negative one is a line-numbered error
   here rather than a second code path in every kernel. *)

let is_space c = c = ' ' || c = '\t' || c = '\r' || c = '\012'

(* A process id in [text[s..e)]: [int_of_string_opt], [None] when
   negative, with an allocation-free fast path for the all-digit tokens
   that dominate real inputs (18 digits always fit in an OCaml int). *)
let parse_int text s e =
  let len = e - s in
  if len = 0 then None
  else begin
    let all_digits = ref (len <= 18) in
    let i = ref s in
    while !all_digits && !i < e do
      let c = String.unsafe_get text !i in
      if c < '0' || c > '9' then all_digits := false else incr i
    done;
    if !all_digits then begin
      let v = ref 0 in
      for j = s to e - 1 do
        v := (!v * 10) + (Char.code (String.unsafe_get text j) - Char.code '0')
      done;
      Some !v
    end
    else
      match int_of_string_opt (String.sub text s len) with
      | Some v when v >= 0 -> Some v
      | _ -> None
  end

let of_string text =
  let len = String.length text in
  let g = ref Digraph.empty in
  let err = ref None in
  let pos = ref 0 in
  let lineno = ref 1 in
  let running = ref true in
  while !running do
    let ls = !pos in
    let le =
      match String.index_from_opt text ls '\n' with Some i -> i | None -> len
    in
    (* Cut the line at the first '#', then trim both ends. *)
    let ce = ref ls in
    while !ce < le && text.[!ce] <> '#' do
      incr ce
    done;
    let a = ref ls and b = ref !ce in
    while !a < !b && is_space text.[!a] do
      incr a
    done;
    while !b > !a && is_space text.[!b - 1] do
      decr b
    done;
    if !a < !b then begin
      let colon = ref !a in
      while !colon < !b && text.[!colon] <> ':' do
        incr colon
      done;
      if !colon = !b then
        err := Some (Printf.sprintf "line %d: expected 'vertex: succ...'" !lineno)
      else begin
        let ve = ref !colon in
        while !ve > !a && is_space text.[!ve - 1] do
          decr ve
        done;
        match parse_int text !a !ve with
        | None ->
            err :=
              Some
                (Printf.sprintf "line %d: bad vertex id %S" !lineno
                   (String.sub text !a (!ve - !a)))
        | Some v ->
            (* Successor tokens: split on ' ', trim each of the
               remaining whitespace, skip empties. *)
            let succs = ref [] in
            let ok = ref true in
            let i = ref (!colon + 1) in
            while !ok && !i < !b do
              if text.[!i] = ' ' then incr i
              else begin
                let ts = ref !i in
                while !i < !b && text.[!i] <> ' ' do
                  incr i
                done;
                let te = ref !i in
                while !ts < !te && is_space text.[!ts] do
                  incr ts
                done;
                while !te > !ts && is_space text.[!te - 1] do
                  decr te
                done;
                if !ts < !te then
                  match parse_int text !ts !te with
                  | None -> ok := false
                  | Some s -> succs := s :: !succs
              end
            done;
            if not !ok then
              err := Some (Printf.sprintf "line %d: bad successor id" !lineno)
            else
              g :=
                List.fold_left
                  (fun g s -> Digraph.add_edge v s g)
                  (Digraph.add_vertex v !g)
                  (List.rev !succs)
      end
    end;
    if Option.is_some !err || le >= len then running := false
    else begin
      pos := le + 1;
      incr lineno
    end
  done;
  match !err with Some e -> Error e | None -> Ok !g

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
