(** On-disk representation of a slice assignment ([Quorum.system]).

    A line-based plain-text format — one process per line:

    {v
    # stellar-cup fbas v1
    0 threshold 4 of 0 1 2 3 5
    1 slices { 0 1 2 } { 1 2 4 }
    2 none
    v}

    [threshold T of ...] is the symbolic Algorithm-2 form ([T >= 0]),
    [slices { ... } ...] an explicit slice list, [none] a process with
    no declared slices. Input is read by {!Graphkit.Parse}'s shared
    reader: tokens are separated by any whitespace (tabs included), a
    [#] starts a comment anywhere on a line, and blank lines are
    ignored. Output is in ascending pid order with a version header, so
    printing is deterministic and round trips through parsing. The
    committed live-network fixture under [test/fixtures/] uses this
    format, and the [fbas] CLI verbs read and write it. *)

val to_string : Quorum.system -> string

val to_file : string -> Quorum.system -> unit

val of_string : string -> (Quorum.system, string) result
(** Parse errors name the offending line. Process ids are
    {!Graphkit.Parse.id}'s: [int_of_string] integers in [[0, 2^20)],
    since the compiled system is a dense bitset per slice, sized by the
    largest id. A negative threshold is an error too. *)

val of_file : string -> (Quorum.system, string) result
(** [Graphkit.Parse.parse_file of_string]: every error is
    [Error "<path>: <reason>"]. *)
