(** Parsing knowledge-connectivity graphs from a small adjacency-list
    text format, so the CLI can analyse user-provided topologies:

    {v
    # comments and blank lines are ignored
    1: 2 5
    2: 4
    3: 5 7
    8:          # a vertex with no outgoing knowledge
    v} *)

val of_string : string -> (Digraph.t, string) result
(** Parses the adjacency format; returns a human-readable error message
    naming the offending line otherwise. Ids follow [int_of_string] and
    must be non-negative: a negative id is a [bad vertex id] or [bad
    successor id] error. *)

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
