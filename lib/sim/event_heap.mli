(** Flat, allocation-free event queue — the engine's internal queue.

    A monotone radix heap specialised to the three engine event shapes
    (start, timer, deliver). Where the seed's generic event queue
    allocates an entry record plus a payload block per push, a push
    here writes one row across preallocated parallel arrays (row slots
    are recycled through an intrusive free list) and links it into one
    of 32 FIFO buckets, each of which keeps its least time; the
    per-event hot path allocates nothing, and memory follows the
    backlog of pending events, whatever their times.

    Ordering is identical to that queue's: strictly by
    [(time, push sequence)], so equal times pop in push order, and
    swapping the engine onto this queue changes no schedule — traces
    and tables stay byte-identical.

    {b Monotone contract.} Times are integers in [[0, 2^31 - 1]], and
    no push may name a time earlier than the last popped event's (0
    before the first pop). The engine keeps it: deliveries and timers
    land at least one tick after the current clock, and starts are
    pushed before the first pop. The generic queue, which has no such
    contract, is now a test oracle in [test/oracle], and the bench
    baseline this module is measured against.

    {b Rows outlive the queue.} {!create} takes the row arrays its
    domain has spare and {!release} gives them back, so on one domain
    the arrays grow to the largest backlog once, not in every run. A
    domain keeps rows for at most {!spare_bound} events. Reused rows
    are never cleared and need not be: a queue hands out no row before
    its push writes every field. *)

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
(** An empty queue on the calling domain's spare rows, if it has any;
    the spare is left empty until a {!release}. *)

val release : 'm t -> unit
(** Gives the queue's row arrays to the calling domain's spare, if
    they hold at most {!spare_bound} rows and more than the spare
    holds, and leaves the queue empty and without storage of its own
    (its {!high_water} is kept). A later push on it grows fresh rows,
    so it never writes into rows a newer queue has taken. *)

val spare_bound : int
(** [2^16]: a domain keeps rows for at most this many events, about
    3 MB. *)

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
      (from any push) if [time] lies outside [[0, 2^31 - 1]] or before
      the last popped event's time. *)

val pop : 'm t -> bool
(** Removes the minimum event and parks it in the cursor row; [false]
    iff the queue was empty. The accessors below read the cursor and
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
