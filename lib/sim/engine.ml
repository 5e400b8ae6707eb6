open Graphkit

let src = Logs.Src.create "simkit.engine" ~doc:"Discrete-event engine"

module Log = (val Logs.src_log src : Logs.LOG)

type stats = {
  messages_sent : int;
  messages_delivered : int;
  messages_dropped : int;
  timers_fired : int;
  end_time : int;
  queue_high_water : int;
  sent_by : int Pid.Map.t;
  sent_by_class : (string * int) list;
}

(* Counters pre-registered at engine creation so the per-event hot path
   pays one field write, not a registry lookup. *)
type meters = {
  m_sent : Obs.Metrics.counter;
  m_delivered : Obs.Metrics.counter;
  m_dropped : Obs.Metrics.counter;
  m_timers : Obs.Metrics.counter;
  m_queue_depth : Obs.Metrics.gauge;
}

type 'm t = {
  delay : Delay.t;
  (* The flat {!Event_heap}: same (time, seq) order as the general
     binary-heap event queue it replaced (now the test oracle in
     [test/oracle]), but pushes and pops allocate nothing — the
     per-event cost is array stores, not heap blocks. *)
  queue : 'm Event_heap.t;
  nodes : (Pid.t, 'm behavior) Hashtbl.t;
  (* Dispatch goes through [slots]: a dense array indexed by pid holding
     the behaviour together with a preallocated ctx, so the per-event
     path is one bounds check and one array load — no hashing, no ctx
     allocation. [nodes] stays the registration record that {!run}
     iterates for Start events. *)
  mutable slots : 'm slot option array;
  pp_msg : (Format.formatter -> 'm -> unit) option;
  classify : ('m -> string) option;
  class_counts : (string, int) Hashtbl.t;
  meters : meters option;
  trace : Obs.Trace.sink option;
  default_max_time : int;
  mutable clock : int;
  mutable messages_sent : int;
  mutable messages_delivered : int;
  mutable messages_dropped : int;
  mutable timers_fired : int;
  sent_by_tbl : (Pid.t, int) Hashtbl.t;
}

and 'm slot = { b : 'm behavior; ctx : 'm ctx }
and 'm ctx = { engine : 'm t; owner : Pid.t }

and 'm behavior = {
  on_start : 'm ctx -> unit;
  on_message : 'm ctx -> src:Pid.t -> 'm -> unit;
  on_timer : 'm ctx -> string -> unit;
}

let idle_behavior =
  {
    on_start = (fun _ -> ());
    on_message = (fun _ ~src:_ _ -> ());
    on_timer = (fun _ _ -> ());
  }

let self ctx = ctx.owner
let now ctx = ctx.engine.clock

let emit t name fields =
  match t.trace with
  | None -> ()
  | Some sink -> Obs.Trace.emit sink ~time:t.clock ~scope:"engine" ~name fields

let msg_fields t payload =
  match (t.trace, t.pp_msg) with
  | Some _, Some pp ->
      [ ("msg", Obs.Json.String (Format.asprintf "%a" pp payload)) ]
  | _ -> []

(* The field lists (and the rendered ["msg"] payloads) exist only for
   the trace sink; with tracing off the hot path must not allocate
   them, so every emit site guards construction on [t.trace]. *)
let tracing t = match t.trace with None -> false | Some _ -> true

let send ctx dst payload =
  let t = ctx.engine in
  t.messages_sent <- t.messages_sent + 1;
  (match t.classify with
  | Some f ->
      let c = f payload in
      Hashtbl.replace t.class_counts c
        (1 + Option.value ~default:0 (Hashtbl.find_opt t.class_counts c))
  | None -> ());
  Hashtbl.replace t.sent_by_tbl ctx.owner
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.sent_by_tbl ctx.owner));
  let d = Delay.delay_of t.delay ~now:t.clock ~src:ctx.owner ~dst in
  (match t.meters with Some m -> Obs.Metrics.incr m.m_sent | None -> ());
  if tracing t then
    emit t "send"
      ([
         ("src", Obs.Json.Int ctx.owner);
         ("dst", Obs.Json.Int dst);
         ("at", Obs.Json.Int (t.clock + d));
       ]
      @ msg_fields t payload);
  Event_heap.push_deliver t.queue ~time:(t.clock + d) ~src:ctx.owner ~dst
    payload

let set_timer ctx ~delay tag =
  let t = ctx.engine in
  Event_heap.push_timer t.queue ~time:(t.clock + max 1 delay) ~owner:ctx.owner
    tag

let create ?pp_msg ?classify ?metrics ?trace ?(max_time = 1_000_000) ~delay ()
    =
  let meters =
    Option.map
      (fun reg ->
        {
          m_sent = Obs.Metrics.counter reg "engine_messages_sent";
          m_delivered = Obs.Metrics.counter reg "engine_messages_delivered";
          m_dropped = Obs.Metrics.counter reg "engine_messages_dropped";
          m_timers = Obs.Metrics.counter reg "engine_timers_fired";
          m_queue_depth = Obs.Metrics.gauge reg "engine_queue_depth";
        })
      metrics
  in
  {
    delay;
    queue = Event_heap.create ();
    nodes = Hashtbl.create 32;
    slots = [||];
    pp_msg;
    classify;
    class_counts = Hashtbl.create 8;
    meters;
    trace;
    default_max_time = max_time;
    clock = 0;
    messages_sent = 0;
    messages_delivered = 0;
    messages_dropped = 0;
    timers_fired = 0;
    sent_by_tbl = Hashtbl.create 32;
  }

let create_cfg ?pp_msg ?classify (cfg : Run_config.t) =
  create ?pp_msg ?classify ?metrics:cfg.metrics ?trace:cfg.trace
    ~max_time:cfg.max_time
    ~delay:(Run_config.delay_model cfg)
    ()

let add_node t pid behavior =
  if pid < 0 then invalid_arg "Engine.add_node: negative process id";
  Hashtbl.replace t.nodes pid behavior;
  if pid >= Array.length t.slots then begin
    let len = max 16 (max (pid + 1) (2 * Array.length t.slots)) in
    let grown = Array.make len None in
    Array.blit t.slots 0 grown 0 (Array.length t.slots);
    t.slots <- grown
  end;
  t.slots.(pid) <- Some { b = behavior; ctx = { engine = t; owner = pid } }

(* Any pid outside the table, a negative one included, has no
   behaviour: a message sent there is dropped. *)
let slot_of t pid =
  if pid >= 0 && pid < Array.length t.slots then Array.unsafe_get t.slots pid
  else None

let stats_of t =
  {
    messages_sent = t.messages_sent;
    messages_delivered = t.messages_delivered;
    messages_dropped = t.messages_dropped;
    timers_fired = t.timers_fired;
    end_time = t.clock;
    queue_high_water = Event_heap.high_water t.queue;
    sent_by =
      (* materialized on demand: the per-send hot path only bumps a
         hash-table counter. Folding into [Pid.Map.add] is the
         canonical D1 ordering step — the map is the same whatever
         order the buckets are enumerated in (see DESIGN.md §11). *)
      Hashtbl.fold Pid.Map.add t.sent_by_tbl Pid.Map.empty;
    sent_by_class =
      List.sort compare
        (Hashtbl.fold (fun c n acc -> (c, n) :: acc) t.class_counts []);
  }

let now_of t = t.clock

(* Dispatches the event sitting in the heap's pop cursor. Every cursor
   field is read into a local before any behaviour runs: a handler's
   first [send] overwrites the cursor slot. *)
let dispatch t =
  (match t.meters with
  | Some m -> Obs.Metrics.set_gauge m.m_queue_depth (Event_heap.length t.queue)
  | None -> ());
  let q = t.queue in
  let k = Event_heap.kind q in
  if Event_heap.Kind.equal k Event_heap.Kind.start then begin
    let pid = Event_heap.node_a q in
    match slot_of t pid with
    | Some s ->
        if tracing t then emit t "start" [ ("node", Obs.Json.Int pid) ];
        s.b.on_start s.ctx
    | None -> ()
  end
  else if Event_heap.Kind.equal k Event_heap.Kind.timer then begin
    let owner = Event_heap.node_a q in
    let tag = Event_heap.tag q in
    match slot_of t owner with
    | Some s ->
        t.timers_fired <- t.timers_fired + 1;
        (match t.meters with
        | Some m -> Obs.Metrics.incr m.m_timers
        | None -> ());
        if tracing t then
          emit t "timer"
            [ ("owner", Obs.Json.Int owner); ("tag", Obs.Json.String tag) ];
        s.b.on_timer s.ctx tag
    | None -> ()
  end
  else begin
    let from = Event_heap.node_a q in
    let dst = Event_heap.node_b q in
    let payload = Event_heap.payload q in
    match slot_of t dst with
    | Some s ->
        t.messages_delivered <- t.messages_delivered + 1;
        (match t.meters with
        | Some m -> Obs.Metrics.incr m.m_delivered
        | None -> ());
        if tracing t then
          emit t "deliver"
            ([ ("src", Obs.Json.Int from); ("dst", Obs.Json.Int dst) ]
            @ msg_fields t payload);
        (match t.pp_msg with
        | Some pp ->
            Log.debug (fun m ->
                m "t=%d %d -> %d : %a" t.clock from dst pp payload)
        | None -> ());
        s.b.on_message s.ctx ~src:from payload
    | None ->
        t.messages_dropped <- t.messages_dropped + 1;
        (match t.meters with
        | Some m -> Obs.Metrics.incr m.m_dropped
        | None -> ());
        if tracing t then
          emit t "drop"
            [ ("src", Obs.Json.Int from); ("dst", Obs.Json.Int dst) ]
  end

let run ?max_time ?(stop = fun () -> false) t =
  let max_time = Option.value ~default:t.default_max_time max_time in
  (* Start events go out in ascending pid order — a sorted snapshot of
     [nodes], not [Hashtbl.iter], so the time-0 schedule (and with it
     the per-run delay stream) never depends on hash-bucket layout. *)
  List.iter
    (fun pid -> Event_heap.push_start t.queue ~time:0 pid)
    (List.sort Pid.compare
       (Hashtbl.fold (fun pid _ acc -> pid :: acc) t.nodes []));
  let rec loop () =
    if stop () then ()
    else if not (Event_heap.pop t.queue) then ()
    else begin
      let time = Event_heap.time t.queue in
      if time > max_time then ()
      else begin
        t.clock <- time;
        dispatch t;
        loop ()
      end
    end
  in
  loop ();
  stats_of t
