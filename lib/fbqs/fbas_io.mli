(** On-disk representation of a slice assignment ([Quorum.system]).

    A line-based plain-text format — one process per line:

    {v
    # stellar-cup fbas v1
    0 threshold 4 of 0 1 2 3 5
    1 slices { 0 1 2 } { 1 2 4 }
    2 none
    v}

    [threshold T of ...] is the symbolic Algorithm-2 form, [slices
    { ... } ...] an explicit slice list, [none] a process with no
    declared slices. Blank lines and [#] comments are ignored on input;
    output is in ascending pid order with a version header, so printing
    is deterministic and round trips through parsing. The committed
    live-network fixture under [test/fixtures/] uses this format, and
    the [fbas] CLI verbs read and write it. *)

val to_string : Quorum.system -> string

val to_file : string -> Quorum.system -> unit

val of_string : string -> (Quorum.system, string) result
(** Parse errors name the offending line. Process ids follow
    [int_of_string] and must lie in [[0, 2^20)]
    ({!Graphkit.Parse.id_bound}): the compiled system is a dense bitset
    per slice, sized by the largest id. *)

val of_file : string -> (Quorum.system, string) result
(** [Graphkit.Parse.parse_file of_string]: every error is
    [Error "<path>: <reason>"]. *)
