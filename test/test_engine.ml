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
  Alcotest.(check bool) "a second run would start in the past" true raised

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
        Alcotest.test_case "unknown destination dropped" `Quick
          test_send_to_unknown_is_dropped;
        Alcotest.test_case "partial synchrony delivery bound" `Quick
          test_partial_synchrony_bound;
        Alcotest.test_case "determinism" `Quick test_determinism;
        Alcotest.test_case "stop predicate" `Quick test_stop_predicate;
        Alcotest.test_case "start order" `Quick test_start_order;
      ] );
  ]
