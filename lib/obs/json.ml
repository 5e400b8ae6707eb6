type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let rec to_buffer buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
      if not (Float.is_finite f) then Buffer.add_string buf "null"
        (* lint: allow D5 — the one canonical float encoder *)
      else Buffer.add_string buf (Printf.sprintf "%.12g" f)
  | String s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape s);
      Buffer.add_char buf '"'
  | List l ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          to_buffer buf x)
        l;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          Buffer.add_string buf (escape k);
          Buffer.add_string buf "\":";
          to_buffer buf v)
        fields;
      Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 256 in
  to_buffer buf j;
  Buffer.contents buf

(* ---- parsing ---------------------------------------------------------

   A small recursive-descent reader for the same document type, used by
   the analysis daemon to decode newline-delimited request objects. It
   accepts standard JSON with two deliberate simplifications matching
   this codebase's needs: numbers without '.', 'e' or 'E' must fit in
   an OCaml int (requests carry ids, seeds and sizes, never bignums),
   and \u escapes outside ASCII are kept as a literal escape sequence
   rather than decoded to UTF-8 (keys and verbs are ASCII; payload
   strings round-trip unchanged through escape/unescape). The reader
   recurses once per open array or object, so it refuses a document
   nested deeper than [max_depth]: a hostile request line then gets an
   [Error] rather than exhausting the stack. *)

exception Parse_error of string

let max_depth = 512

let parse_error fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | Some c' -> parse_error "expected '%c' at offset %d, found '%c'" c !pos c'
    | None -> parse_error "expected '%c' at offset %d, found end" c !pos
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else parse_error "invalid token at offset %d" !pos
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then parse_error "unterminated string";
      let c = s.[!pos] in
      advance ();
      if c = '"' then Buffer.contents buf
      else if c = '\\' then begin
        (if !pos >= n then parse_error "unterminated escape";
         let e = s.[!pos] in
         advance ();
         match e with
         | '"' -> Buffer.add_char buf '"'
         | '\\' -> Buffer.add_char buf '\\'
         | '/' -> Buffer.add_char buf '/'
         | 'b' -> Buffer.add_char buf '\b'
         | 'f' -> Buffer.add_char buf '\012'
         | 'n' -> Buffer.add_char buf '\n'
         | 'r' -> Buffer.add_char buf '\r'
         | 't' -> Buffer.add_char buf '\t'
         | 'u' ->
             if !pos + 4 > n then parse_error "truncated \\u escape";
             let hex = String.sub s !pos 4 in
             let code =
               match int_of_string_opt ("0x" ^ hex) with
               | Some c -> c
               | None -> parse_error "invalid \\u escape \\u%s" hex
             in
             pos := !pos + 4;
             if code < 0x80 then Buffer.add_char buf (Char.chr code)
             else Buffer.add_string buf (Printf.sprintf "\\u%s" hex)
         | e -> parse_error "invalid escape '\\%c'" e);
        go ()
      end
      else begin
        Buffer.add_char buf c;
        go ()
      end
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    let tok = String.sub s start (!pos - start) in
    let is_float =
      String.exists (fun c -> c = '.' || c = 'e' || c = 'E') tok
    in
    if is_float then
      match float_of_string_opt tok with
      | Some f -> Float f
      | None -> parse_error "invalid number %S at offset %d" tok start
    else
      match int_of_string_opt tok with
      | Some i -> Int i
      | None -> parse_error "invalid number %S at offset %d" tok start
  in
  (* [depth] counts the arrays and objects open around the value. *)
  let nest depth =
    if depth >= max_depth then
      parse_error "nesting deeper than %d at offset %d" max_depth !pos;
    advance ();
    depth + 1
  in
  let rec parse_value depth =
    skip_ws ();
    match peek () with
    | None -> parse_error "unexpected end of input"
    | Some '"' -> String (parse_string ())
    | Some '{' ->
        let depth = nest depth in
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec fields acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value depth in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                fields ((k, v) :: acc)
            | Some '}' ->
                advance ();
                List.rev ((k, v) :: acc)
            | _ -> parse_error "expected ',' or '}' at offset %d" !pos
          in
          Obj (fields [])
        end
    | Some '[' ->
        let depth = nest depth in
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let rec elems acc =
            let v = parse_value depth in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elems (v :: acc)
            | Some ']' ->
                advance ();
                List.rev (v :: acc)
            | _ -> parse_error "expected ',' or ']' at offset %d" !pos
          in
          List (elems [])
        end
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> parse_error "unexpected character '%c' at offset %d" c !pos
  in
  match parse_value 0 with
  | v ->
      skip_ws ();
      if !pos < n then Error (Printf.sprintf "trailing data at offset %d" !pos)
      else Ok v
  | exception Parse_error msg -> Error msg
