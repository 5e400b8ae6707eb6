(** A minimal JSON document type with deterministic serialization.

    Every consumer of the observability layer (JSONL trace sinks,
    metrics dumps, the CLI's [--json] outputs, the bench harness)
    serializes through this one writer, so identical values always
    produce identical bytes — the property the golden-trace tests and
    the CI determinism gate rely on. Object fields are emitted in the
    order given; no whitespace is inserted. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact rendering (no spaces, no trailing newline). Floats are
    printed with ["%.12g"]; NaN and infinities are rendered as [null]
    (JSON has no lexeme for them). *)

val to_buffer : Buffer.t -> t -> unit

val escape : string -> string
(** The body of a JSON string literal (quotes not included). *)

val of_string : string -> (t, string) result
(** Parses one JSON document (the analysis daemon's request decoder).
    Restrictions, all irrelevant to protocol traffic: numbers without
    a fraction or exponent must fit in an OCaml [int], [\u] escapes
    beyond ASCII are preserved as literal escape text rather than
    decoded, and a document nesting more than 512 arrays and objects
    is an error, so no input can exhaust the stack. Trailing non-whitespace
    after the document is an error. *)
