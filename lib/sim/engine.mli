(** The discrete-event simulation engine.

    Processes are event-driven state machines ({!type:behavior}): the
    engine delivers messages and timer expirations, the behaviour reacts
    by sending messages and arming timers through its {!type:ctx}
    handle. Channels are authenticated (the engine stamps the true
    sender), reliable (no loss or duplication) and point-to-point;
    delivery order follows the {!Delay} model, so reordering is the
    norm. All scheduling is deterministic given the delay model's
    seed.

    The engine is the bottom of the observability stack, and both of
    its sinks come from the {!Run_config.t} it is created with: given a
    metrics registry it counts sends, deliveries, drops and timer
    firings and tracks the event-queue depth; given a trace sink it
    emits one structured event per send, delivery, drop, timer and
    process start (scope ["engine"]), stamped with the logical clock.
    The trace is the only way to watch a run: the engine logs nothing
    else. *)

open Graphkit

type 'm ctx
(** The handle a running process uses to interact with the world. *)

val now : 'm ctx -> int

val send : 'm ctx -> Pid.t -> 'm -> unit
(** Sends a message; delivery is scheduled per the delay model. Sending
    to an unknown process id silently drops the message (it still counts
    as sent in the statistics, mirroring a real network where the
    destination address may be stale; the drop is counted at the
    scheduled delivery time). *)

val set_timer : 'm ctx -> delay:int -> string -> unit
(** Arms a one-shot timer; the tag is passed back to [on_timer].
    Timers cannot be cancelled — protocols ignore stale tags instead,
    as real implementations commonly do. *)

type 'm behavior = {
  on_start : 'm ctx -> unit;  (** invoked once at time 0 *)
  on_message : 'm ctx -> src:Pid.t -> 'm -> unit;
  on_timer : 'm ctx -> string -> unit;
}

val idle_behavior : 'm behavior
(** Reacts to nothing — a crashed-from-the-start (silent) process. *)

type stats = {
  messages_sent : int;
  messages_delivered : int;
  messages_dropped : int;
      (** sends whose destination was never registered *)
  timers_fired : int;
  end_time : int;  (** timestamp of the last processed event *)
  queue_high_water : int;
      (** maximum number of simultaneously pending events *)
}

type 'm t

val create_cfg :
  ?pp_msg:(Format.formatter -> 'm -> unit) -> Run_config.t -> 'm t
(** A fresh engine driven by a unified {!Run_config.t}: delay model,
    observability sinks and time budget ([max_time]) all come from the
    config. When a trace sink is attached, [pp_msg] renders each
    message into a ["msg"] field of its send/deliver events. *)

val add_node : 'm t -> Pid.t -> 'm behavior -> unit
(** Registers a process. Re-adding an id replaces its behaviour.
    Must be called before {!run}.
    @raise Invalid_argument on a negative pid. *)

val run : ?stop:(unit -> bool) -> 'm t -> stats
(** Starts every registered process, in ascending pid order, and
    processes events in timestamp order until the queue drains,
    [stop ()] holds (checked after every event), or the clock passes
    the config's [max_time]. Returns the execution statistics.

    An engine runs once: a second call raises [Invalid_argument],
    however early the first one stopped. On return the engine gives its
    event queue's rows back to the calling domain for the next engine
    it creates ({!Event_heap.release}), and the events still pending
    are dropped. A [send] or [set_timer] through a finished engine's
    [ctx] schedules an event that is never delivered and touches no
    other engine. *)
