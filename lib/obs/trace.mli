(** Structured trace events with logical-time stamps.

    A trace is a stream of typed events, each stamped with the
    simulator's logical clock and a per-sink sequence number assigned
    at emission. Events never carry wall-clock readings, so for a fixed
    seed two runs emit byte-identical streams — traces double as golden
    files in tests and as CI artifacts.

    A sink holds exactly one writer, chosen when it is made:
    {!to_buffer} renders each event as a JSONL line, {!recording} keeps
    the events in memory. Instrumented code holds a [sink option] and
    skips all field construction when tracing is off. *)

type event = {
  time : int;  (** logical simulation time at emission *)
  seq : int;  (** per-sink emission index, starting at 0 *)
  scope : string;  (** emitting subsystem: "engine", "scp", "cup", ... *)
  name : string;  (** event type within the scope: "send", "vote", ... *)
  fields : (string * Json.t) list;  (** typed payload, order preserved *)
}

type sink

val emit :
  sink -> time:int -> scope:string -> name:string ->
  (string * Json.t) list -> unit
(** Stamps the event with the next sequence number and hands it to the
    sink's writer. *)

val event_count : sink -> int
(** Events emitted so far (= the next sequence number). *)

val event_to_json : event -> Json.t
(** [{"t": time, "seq": seq, "scope": scope, "ev": name, ...fields}] —
    fields are spliced into the same object, in emission order. *)

val to_buffer : Buffer.t -> sink
(** A fresh sink appending each event to the buffer as one compact
    {!event_to_json} line plus a newline (JSONL). *)

val recording : unit -> sink * (unit -> event list)
(** A fresh sink plus an accessor returning all events emitted so far,
    in order — what the daemon streams back and the unit tests
    inspect. *)
