(** A generic keyed LRU cache with uniform, observable statistics.

    The analysis daemon's file and response caches are its instances,
    and its [stats] verb reports their {!stats}. The quorum and graph
    kernels keep none: each caller compiles its own handle and holds
    it for as long as it asks questions of it (DESIGN.md §14). The
    two kernels' [cache_stats] stubs still return this record shape,
    all zero, for the benchmark harness that reads them.

    Lookups are most-recently-used: a hit promotes the entry to the
    front, an insertion beyond capacity evicts the least recently used
    entry. A cache is plain mutable state with no lock of its own: a
    caller that shares one between domains runs every operation inside
    [Simkit.Exec.protect], as the daemon does. All counters are plain
    integers, so stats dumps are byte-deterministic.

    Keys are compared with the [equal] given at creation (default:
    physical equality [( == )]). *)

type ('k, 'v) t

type stats = {
  hits : int;  (** lookups answered from the cache *)
  misses : int;  (** lookups that found nothing; [hits + misses] = lookups *)
  evictions : int;  (** entries dropped by capacity pressure *)
  length : int;  (** current occupancy, [<= capacity] *)
  capacity : int;
}

val create :
  ?equal:('k -> 'k -> bool) -> name:string -> capacity:int -> unit -> ('k, 'v) t
(** [name] labels the cache in metrics and stats dumps.
    @raise Invalid_argument if [capacity < 1]. *)

val name : ('k, 'v) t -> string

val capacity : ('k, 'v) t -> int

val length : ('k, 'v) t -> int

val find_opt : ('k, 'v) t -> 'k -> 'v option
(** Counts one hit (and promotes) or one miss. *)

val add : ('k, 'v) t -> 'k -> 'v -> unit
(** Inserts at the front, evicting the least recently used entry when
    the cache is full. Does not count a lookup. The key is assumed
    absent (the memo pattern: {!find_opt} missed); adding a key that is
    already present creates a shadowed duplicate and wastes a slot. *)

val find_or_add : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v
(** The memo operation: {!find_opt}, calling [compute] and {!add}-ing
    its result on a miss. *)

val to_list : ('k, 'v) t -> ('k * 'v) list
(** Entries in most-recently-used-first order. *)

val stats : ('k, 'v) t -> stats

val stats_to_json : stats -> Obs.Json.t
(** [{"hits", "misses", "evictions", "length", "capacity"}] — integer
    fields in that order. *)
