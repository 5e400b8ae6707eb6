open Simkit

type msg = Ping of int | Pong of int

let test_ping_pong () =
  let delay = Delay.synchronous ~delta:1 in
  let engine = Engine.create_cfg { Run_config.default with delay = Some delay; max_time = 1_000_000 } in
  let pongs = ref [] in
  let pinger : msg Engine.behavior =
    {
      on_start = (fun ctx -> Engine.send ctx 2 (Ping 0));
      on_message =
        (fun ctx ~src:_ -> function
          | Pong n when n < 3 -> Engine.send ctx 2 (Ping (n + 1))
          | Pong n -> pongs := n :: !pongs
          | Ping _ -> ());
      on_timer = (fun _ _ -> ());
    }
  in
  let ponger : msg Engine.behavior =
    {
      Engine.idle_behavior with
      on_message =
        (fun ctx ~src -> function
          | Ping n -> Engine.send ctx src (Pong n)
          | Pong _ -> ());
    }
  in
  Engine.add_node engine 1 pinger;
  Engine.add_node engine 2 ponger;
  let stats = Engine.run engine in
  Alcotest.(check (list int)) "last pong" [ 3 ] !pongs;
  Alcotest.(check int) "4 pings + 4 pongs" 8 stats.messages_sent;
  Alcotest.(check int) "all delivered" 8 stats.messages_delivered

let test_timer () =
  let delay = Delay.synchronous ~delta:1 in
  let engine = Engine.create_cfg { Run_config.default with delay = Some delay; max_time = 1_000_000 } in
  let fired = ref [] in
  let node : unit Engine.behavior =
    {
      Engine.idle_behavior with
      on_start =
        (fun ctx ->
          Engine.set_timer ctx ~delay:10 "a";
          Engine.set_timer ctx ~delay:5 "b");
      on_timer = (fun ctx tag -> fired := (Engine.now ctx, tag) :: !fired);
    }
  in
  Engine.add_node engine 1 { node with on_timer = node.on_timer };
  let stats = Engine.run engine in
  Alcotest.(check (list (pair int string)))
    "timers fire in order"
    [ (5, "b"); (10, "a") ]
    (List.rev !fired);
  Alcotest.(check int) "two timers" 2 stats.timers_fired

let test_runs_once () =
  let delay = Delay.synchronous ~delta:1 in
  let engine =
    Engine.create_cfg
      { Run_config.default with delay = Some delay; max_time = 1_000_000 }
  in
  let node : unit Engine.behavior =
    {
      Engine.idle_behavior with
      on_start = (fun ctx -> Engine.set_timer ctx ~delay:3 "t");
    }
  in
  Engine.add_node engine 1 node;
  let stats = Engine.run engine in
  Alcotest.(check int) "ran to the timer" 3 stats.end_time;
  let raised =
    try
      ignore (Engine.run engine);
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "a second run raises" true raised;
  (* Also when the first run stopped before its first event: its rows
     have gone back to the domain, so there is no queue to resume. *)
  let engine =
    Engine.create_cfg
      { Run_config.default with delay = Some delay; max_time = 1_000_000 }
  in
  Engine.add_node engine 1 node;
  let stats = Engine.run ~stop:(fun () -> true) engine in
  Alcotest.(check int) "stopped at time 0" 0 stats.end_time;
  let raised =
    try
      ignore (Engine.run engine);
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "a second run after a stop at time 0 raises" true
    raised

(* Engine [a] has run and left the ctx of its node 1 behind. Three
   nodes of a fresh engine each send 150 messages at start, and every
   message is forwarded round the ring twice more, with every event
   traced; with [meddle], each delivery also sends and arms a timer
   through [a]'s stale ctx. The fresh engine runs on the rows [a] gave
   back, hundreds of them pending at once, so a stale ctx that still
   reached those rows would rewrite its pending events. *)
let ring_trace ~stale ~meddle =
  let buf = Buffer.create 65536 in
  let engine =
    Engine.create_cfg
      {
        Run_config.default with
        seed = 3;
        max_time = 1_000_000;
        trace = Some (Obs.Trace.to_buffer buf);
      }
  in
  let node self : int Engine.behavior =
    let next = (self + 1) mod 3 in
    {
      Engine.idle_behavior with
      on_start =
        (fun ctx ->
          for _ = 1 to 150 do
            Engine.send ctx next 0
          done);
      on_message =
        (fun ctx ~src:_ hops ->
          if meddle then begin
            Engine.send stale 2 hops;
            Engine.set_timer stale ~delay:1 "stale"
          end;
          if hops < 2 then Engine.send ctx next (hops + 1));
    }
  in
  List.iter (fun i -> Engine.add_node engine i (node i)) [ 0; 1; 2 ];
  ignore (Engine.run engine);
  Buffer.contents buf

let test_stale_ctx_is_inert () =
  let a = Engine.create_cfg { Run_config.default with max_time = 1_000_000 } in
  let stale = ref None in
  Engine.add_node a 1
    {
      Engine.idle_behavior with
      on_start =
        (fun ctx ->
          stale := Some ctx;
          for i = 1 to 450 do
            Engine.send ctx 2 i
          done);
    };
  Engine.add_node a 2 Engine.idle_behavior;
  ignore (Engine.run a);
  let stale = Option.get !stale in
  let clean = ring_trace ~stale ~meddle:false in
  let meddled = ring_trace ~stale ~meddle:true in
  Alcotest.(check int) "3 starts, 1,350 sends and 1,350 deliveries" 2703
    (List.length
       (List.filter (fun l -> l <> "") (String.split_on_char '\n' clean)));
  Alcotest.(check bool) "stale sends leave the trace byte-identical" true
    (String.equal clean meddled)

(* One discover-sized run of the sink detector (Algorithm 3): f = 2, a
   sink of 12 and 12 non-sink members, the generator's faulty set
   silent, as perfbench's [discover] workload draws them. *)
let discover_sized () =
  let graph, _sink =
    Graphkit.Generators.random_byzantine_safe ~seed:1 ~f:2 ~sink_size:12
      ~non_sink:12 ()
  in
  let faulty = Graphkit.Generators.random_faulty_set ~seed:1 ~f:2 graph in
  let fault_of i =
    if Graphkit.Pid.Set.mem i faulty then Some Cup.Sink_protocol.Silent
    else None
  in
  Cup.Sink_protocol.run_cfg ~cfg:Cup.Sink_protocol.default_run_config ~graph
    ~f:2 ~fault_of ()

(* Words allocated straight into the major heap. [Gc.counters], not
   [Gc.quick_stat]: on OCaml 5.1 the latter leaves out the words the
   current major slice has not yet accounted. *)
let direct_major_words () =
  let _minor, promoted, major = Gc.counters () in
  major -. promoted

let test_rows_reused () =
  (* Row arrays past 256 words go straight into the major heap. A
     second run on the domain takes the first one's rows, so what it
     allocates there is its payload array (one word per row, plus a
     header) and little else; regrowing the rows cost ~110 k words.
     Emptying the domain's spare first makes the rows the first run's
     own, as long as its backlog needed. *)
  ignore (Event_heap.create ());
  let first = discover_sized () in
  let before = direct_major_words () in
  let second = discover_sized () in
  let words = direct_major_words () -. before in
  let rec rows n =
    if n > second.stats.queue_high_water then n else rows (2 * n)
  in
  let payload = float (rows 16 + 1) in
  let same (a : Cup.Sink_oracle.answer) (b : Cup.Sink_oracle.answer) =
    Bool.equal a.in_sink b.in_sink && Graphkit.Pid.Set.equal a.view b.view
  in
  Alcotest.(check bool) "same run twice" true
    (first.stats = second.stats
    && Graphkit.Pid.Map.equal same first.answers second.answers);
  Alcotest.(check bool)
    (Printf.sprintf "%.0f direct major words besides the %.0f-word payloads"
       (words -. payload) payload)
    true
    (words -. payload < 11_000.)

(* A run whose node 1 sends [sends] messages at once to an idle node 2
   and arms one timer with a fresh tag. Returns a weak pointer to the
   tag, which only the queue's rows keep once the run has returned. *)
let tagged_flood ~sends =
  let tag = String.make 8 't' in
  let w = Weak.create 1 in
  Weak.set w 0 (Some tag);
  let engine =
    Engine.create_cfg
      {
        Run_config.default with
        delay = Some (Delay.synchronous ~delta:1);
        max_time = 1_000_000;
      }
  in
  Engine.add_node engine 1
    {
      Engine.idle_behavior with
      on_start =
        (fun ctx ->
          Engine.set_timer ctx ~delay:1 tag;
          for i = 1 to sends do
            Engine.send ctx 2 i
          done);
    };
  Engine.add_node engine 2 Engine.idle_behavior;
  ignore (Sys.opaque_identity (Engine.run engine));
  w
[@@inline never]

let test_flood_keeps_nothing () =
  (* The domain keeps the rows of a run under the bound, which keep
     the tag alive; a flood past the bound takes those rows, outgrows
     them and keeps nothing, so a full major collection frees both
     tags. *)
  ignore (Event_heap.create ());
  let small = tagged_flood ~sends:10 in
  Gc.full_major ();
  Alcotest.(check bool) "rows under the bound are kept" true
    (Weak.check small 0);
  let flood = tagged_flood ~sends:Event_heap.spare_bound in
  Gc.full_major ();
  Alcotest.(check bool) "the flood's rows are freed" false (Weak.check flood 0);
  Alcotest.(check bool) "and so are the rows it took" false
    (Weak.check small 0)

let test_send_to_unknown_is_dropped () =
  let delay = Delay.synchronous ~delta:1 in
  let engine = Engine.create_cfg { Run_config.default with delay = Some delay; max_time = 1_000_000 } in
  let node : unit Engine.behavior =
    {
      Engine.idle_behavior with
      on_start = (fun ctx -> Engine.send ctx 99 ());
    }
  in
  Engine.add_node engine 1 node;
  let stats = Engine.run engine in
  Alcotest.(check int) "sent" 1 stats.messages_sent;
  Alcotest.(check int) "not delivered" 0 stats.messages_delivered

let test_partial_synchrony_bound () =
  (* Every message sent before GST must arrive by GST + delta. *)
  let gst = 40 and delta = 5 in
  let delay = Delay.partial_synchrony ~gst ~delta ~seed:7 in
  let engine = Engine.create_cfg { Run_config.default with delay = Some delay; max_time = 1_000_000 } in
  let deliveries = ref [] in
  let sender : int Engine.behavior =
    {
      Engine.idle_behavior with
      on_start =
        (fun ctx ->
          for i = 1 to 20 do
            Engine.send ctx 2 i
          done);
    }
  in
  let receiver : int Engine.behavior =
    {
      Engine.idle_behavior with
      on_message = (fun ctx ~src:_ _ -> deliveries := Engine.now ctx :: !deliveries);
    }
  in
  Engine.add_node engine 1 sender;
  Engine.add_node engine 2 receiver;
  ignore (Engine.run engine);
  Alcotest.(check int) "all delivered" 20 (List.length !deliveries);
  List.iter
    (fun t ->
      if t > gst + delta then
        Alcotest.failf "message delivered at %d, after GST+delta=%d" t
          (gst + delta))
    !deliveries

let test_determinism () =
  let run_once () =
    let delay = Delay.partial_synchrony ~gst:20 ~delta:3 ~seed:11 in
    let engine = Engine.create_cfg { Run_config.default with delay = Some delay; max_time = 1_000_000 } in
    let log = ref [] in
    let chatter self peer : int Engine.behavior =
      {
        on_start = (fun ctx -> Engine.send ctx peer self);
        on_message =
          (fun ctx ~src m ->
            log := (Engine.now ctx, src, m) :: !log;
            if m < 10 then Engine.send ctx src (m + 1));
        on_timer = (fun _ _ -> ());
      }
    in
    let engine_add () =
      Engine.add_node engine 1 (chatter 1 2);
      Engine.add_node engine 2 (chatter 2 1)
    in
    engine_add ();
    ignore (Engine.run engine);
    !log
  in
  Alcotest.(check bool) "same seed twice, identical executions" true
    (run_once () = run_once ())

let test_stop_predicate () =
  let delay = Delay.synchronous ~delta:1 in
  let engine = Engine.create_cfg { Run_config.default with delay = Some delay; max_time = 1_000_000 } in
  let count = ref 0 in
  let looper : unit Engine.behavior =
    {
      Engine.idle_behavior with
      on_start = (fun ctx -> Engine.set_timer ctx ~delay:1 "tick");
      on_timer =
        (fun ctx _ ->
          incr count;
          Engine.set_timer ctx ~delay:1 "tick");
    }
  in
  Engine.add_node engine 1 looper;
  ignore (Engine.run ~stop:(fun () -> !count >= 5) engine);
  Alcotest.(check int) "stopped at 5" 5 !count

let test_start_order () =
  (* Start events follow ascending pid, whatever the registration
     order; re-adding a pid replaces its behaviour, so it starts once,
     as the replacement. *)
  let delay = Delay.synchronous ~delta:1 in
  let engine = Engine.create_cfg { Run_config.default with delay = Some delay; max_time = 1_000_000 } in
  let started = ref [] in
  let starter name : unit Engine.behavior =
    {
      Engine.idle_behavior with
      on_start = (fun _ -> started := name :: !started);
    }
  in
  Engine.add_node engine 5 (starter "5");
  Engine.add_node engine 2 (starter "2");
  Engine.add_node engine 9 (starter "9");
  Engine.add_node engine 2 (starter "2'");
  ignore (Engine.run engine);
  Alcotest.(check (list string)) "ascending, once each" [ "2'"; "5"; "9" ]
    (List.rev !started)

let suites =
  [
    ( "engine",
      [
        Alcotest.test_case "ping-pong" `Quick test_ping_pong;
        Alcotest.test_case "timers" `Quick test_timer;
        Alcotest.test_case "an engine runs once" `Quick test_runs_once;
        Alcotest.test_case "a finished engine's ctx touches no other engine"
          `Quick test_stale_ctx_is_inert;
        Alcotest.test_case "a second run reuses the first one's rows" `Quick
          test_rows_reused;
        Alcotest.test_case "a flood past the bound keeps no rows" `Quick
          test_flood_keeps_nothing;
        Alcotest.test_case "unknown destination dropped" `Quick
          test_send_to_unknown_is_dropped;
        Alcotest.test_case "partial synchrony delivery bound" `Quick
          test_partial_synchrony_bound;
        Alcotest.test_case "determinism" `Quick test_determinism;
        Alcotest.test_case "stop predicate" `Quick test_stop_predicate;
        Alcotest.test_case "start order" `Quick test_start_order;
      ] );
  ]
