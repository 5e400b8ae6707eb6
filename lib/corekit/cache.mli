(** A generic keyed LRU cache with uniform, observable statistics.

    This is the shared compiled-handle cache layer: the per-process
    memos in front of [Fbqs.Quorum.Compiled] and [Graphkit.Csr] are
    instances of it, as are the analysis daemon's file and response
    caches. One implementation means one stats record shape
    ({!type:stats}) everywhere and one capacity knob per instance
    ({!set_capacity}, daemon-overridable); the daemon's [stats] verb
    reports the {!stats} of every instance a request can reach: its
    own two and the [Graphkit.Csr] memo.

    Lookups are most-recently-used: a hit promotes the entry to the
    front, an insertion beyond capacity evicts the least recently used
    entry. The cache is single-domain mutable state, like every other
    registry in this codebase; all counters are plain integers, so
    stats dumps are byte-deterministic.

    Keys are compared with the [equal] given at creation (default:
    physical equality [( == )] — the right key for the handle caches,
    whose keys are immutable compiled-from values). *)

type ('k, 'v) t

type protector = { protect : 'a. (unit -> 'a) -> 'a }
(** A critical section runner wrapped around every cache mutation. *)

val set_protector : protector -> unit
(** Installs the critical-section runner for {e all} caches (the
    default runs the closure bare, costing nothing). [Simkit.Exec]
    arms this with a mutex before its first domain spawn; nothing
    else should call it — parallelism primitives stay behind the
    executor seam. [find_or_add] computes outside the critical
    section and re-probes before inserting, so a racing compute
    yields one resident value, not two. *)

type stats = {
  hits : int;  (** lookups answered from the cache *)
  misses : int;  (** lookups that found nothing; [hits + misses] = lookups *)
  evictions : int;  (** entries dropped by capacity pressure or resize *)
  length : int;  (** current occupancy, [<= capacity] *)
  capacity : int;
}

val create :
  ?equal:('k -> 'k -> bool) -> name:string -> capacity:int -> unit -> ('k, 'v) t
(** [name] labels the cache in metrics and stats dumps.
    @raise Invalid_argument if [capacity < 1]. *)

val name : ('k, 'v) t -> string

val capacity : ('k, 'v) t -> int

val set_capacity : ('k, 'v) t -> int -> unit
(** Shrinking below the current occupancy evicts least-recently-used
    entries (counted in [evictions]).
    @raise Invalid_argument if the new capacity is [< 1]. *)

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
