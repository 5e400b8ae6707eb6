(** Parsing knowledge-connectivity graphs from a small adjacency-list
    text format, so the CLI can analyse user-provided topologies:

    {v
    # comments and blank lines are ignored
    1: 2 5
    2: 4
    3: 5 7
    8:          # a vertex with no outgoing knowledge
    v}

    The reader below is shared with [Fbqs.Fbas_io]'s slice systems, so
    both formats follow the same rules: a [#] starts a comment anywhere
    on a line, any whitespace separates tokens, errors name their line
    (counting blank and comment lines), and every id goes through one
    classifier, {!id}. *)

val id_bound : int
(** [2^20]. The dense kernels size their arrays by the largest process
    id, so a file's ids must lie below this bound; a file naming a
    larger one would make a kernel allocate for every id up to it. *)

val fold_lines :
  (string -> 'a -> ('a, string) result) -> 'a -> string -> ('a, string) result
(** [fold_lines f init text] cuts each line of [text] at its first [#]
    and trims it, skips it when empty, and folds [f] over the rest in
    order. The first [Error e] stops the fold as
    [Error "line N: <e>"], lines numbered from 1. *)

val tokens : string -> string list
(** The whitespace-separated tokens of a line (whitespace as
    [String.trim]'s: space, tab, CR, LF, form feed). *)

type id =
  | Id of int  (** in [[0, id_bound)] *)
  | Too_large of int  (** an integer at or above {!id_bound} *)
  | Not_an_id  (** not an [int_of_string] integer, or negative *)

val id : string -> id
(** Classifies a token as a process id, with [int_of_string] semantics
    (so [+2], hex and underscored forms are ids). Each grammar words
    its own error for the last two cases. *)

val of_string : string -> (Digraph.t, string) result
(** Parses the adjacency format; returns a human-readable error message
    naming the offending line otherwise: [bad vertex id "x"] or [bad
    successor id] for a token {!id} does not take, and [vertex id N is
    not below 1048576] or [successor id N is not below 1048576] for one
    too large. *)

val parse_file :
  (string -> ('a, string) result) -> string -> ('a, string) result
(** [parse_file parse path] runs [parse] on the whole file. Every error
    names the path, as [Error "<path>: <reason>"]: the file cannot be
    opened or read (a directory, say), or [parse] refused it. The
    channel is closed on every path. *)

val of_file : string -> (Digraph.t, string) result
(** [parse_file of_string]. *)

val to_string : Digraph.t -> string
(** Renders a graph back into the same format ([of_string] of the
    result is the identity). *)
