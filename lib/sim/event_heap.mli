(** Flat, allocation-free event heap — the engine's internal queue.

    A structure-of-arrays binary min-heap specialised to the three
    engine event shapes (start, timer, deliver). Where the seed's
    generic event queue allocates an entry record plus a payload block
    per push, a push here writes one row across preallocated parallel
    arrays (row slots are recycled through an intrusive free list) and
    the heap itself orders int row ids, so sifting moves single ints;
    the per-event hot path allocates nothing.

    Ordering is identical to that queue's: strictly by
    [(time, push sequence)], packed into a single int key, so swapping
    the engine onto this heap changes no schedule — traces and tables
    stay byte-identical. Times must fit 31 bits (every simulation
    budget in this codebase is ~10^6). The generic queue is now a test
    oracle in [test/oracle], and the bench baseline this module is
    measured against. *)

module Kind : sig
  type t = private int
  (** Dense event-kind code (the [private int] idiom: pattern-free,
      array-indexable, no allocation). *)

  val start : t
  val timer : t
  val deliver : t
  val equal : t -> t -> bool
end

type 'm t

val create : unit -> 'm t
val length : 'm t -> int
val is_empty : 'm t -> bool

val high_water : 'm t -> int
(** Maximum number of simultaneously pending events so far. *)

val push_start : 'm t -> time:int -> int -> unit
(** [push_start t ~time pid] schedules a process start. *)

val push_timer : 'm t -> time:int -> owner:int -> string -> unit
(** [push_timer t ~time ~owner tag] schedules a timer expiry. *)

val push_deliver : 'm t -> time:int -> src:int -> dst:int -> 'm -> unit
(** [push_deliver t ~time ~src ~dst payload] schedules a delivery.

    @raise Invalid_argument
      (from any push) if [time] exceeds the 31-bit key range. *)

val pop : 'm t -> bool
(** Removes the minimum event and parks it in the cursor row; [false]
    iff the heap was empty. The accessors below read the cursor and
    are only meaningful after a [pop] that returned [true], until the
    next [pop] (interleaved pushes leave the cursor intact). *)

val time : 'm t -> int
val kind : 'm t -> Kind.t

val node_a : 'm t -> int
(** Started pid, timer owner, or delivery source, per {!kind}. *)

val node_b : 'm t -> int
(** Delivery destination ([-1] for other kinds). *)

val tag : 'm t -> string
(** Timer tag ([""] for other kinds). *)

val payload : 'm t -> 'm
(** Delivery payload; only valid when {!kind} is {!Kind.deliver}. *)
