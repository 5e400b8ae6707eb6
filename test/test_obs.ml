(* The observability layer itself: JSON determinism, the metrics
   registry, the trace sink, and the engine instrumentation agreeing
   with the engine's own stats. *)

open Graphkit

(* ---- json ------------------------------------------------------------- *)

let test_json_rendering () =
  let j =
    Obs.Json.Obj
      [
        ("b", Obs.Json.Bool true);
        ("a", Obs.Json.Int (-3));
        ("s", Obs.Json.String "x\"y\n");
        ("l", Obs.Json.List [ Obs.Json.Null; Obs.Json.Float 1.5 ]);
      ]
  in
  Alcotest.(check string)
    "insertion order, compact, escaped"
    {|{"b":true,"a":-3,"s":"x\"y\n","l":[null,1.5]}|}
    (Obs.Json.to_string j)

let test_json_non_finite () =
  Alcotest.(check string)
    "nan is null" "null"
    (Obs.Json.to_string (Obs.Json.Float Float.nan));
  Alcotest.(check string)
    "inf is null" "null"
    (Obs.Json.to_string (Obs.Json.Float Float.infinity))

(* ---- metrics ---------------------------------------------------------- *)

let test_counter_and_registry_idempotence () =
  let r = Obs.Metrics.create () in
  let c1 = Obs.Metrics.counter r "hits" in
  let c2 = Obs.Metrics.counter r "hits" in
  Obs.Metrics.incr c1;
  Obs.Metrics.incr ~by:4 c2;
  Alcotest.(check int) "shared underlying counter" 5
    (Obs.Metrics.counter_value c1);
  Alcotest.check_raises "negative increment rejected"
    (Invalid_argument "Metrics.incr: negative increment") (fun () ->
      Obs.Metrics.incr ~by:(-1) c1)

let test_labels_canonical () =
  let r = Obs.Metrics.create () in
  let a = Obs.Metrics.counter r ~labels:[ ("x", "1"); ("y", "2") ] "m" in
  let b = Obs.Metrics.counter r ~labels:[ ("y", "2"); ("x", "1") ] "m" in
  Obs.Metrics.incr a;
  Alcotest.(check int) "label order is canonicalized" 1
    (Obs.Metrics.counter_value b)

let test_gauge_and_histogram () =
  let r = Obs.Metrics.create () in
  let g = Obs.Metrics.gauge r "depth" in
  Obs.Metrics.set_gauge g 7;
  Obs.Metrics.set_gauge g 3;
  Alcotest.(check int) "gauge holds last value" 3 (Obs.Metrics.gauge_value g);
  Alcotest.(check int) "gauge tracks max" 7 (Obs.Metrics.gauge_max g);
  let h = Obs.Metrics.histogram r ~buckets:[ 1; 10 ] "lat" in
  List.iter (Obs.Metrics.observe h) [ 0; 5; 100 ];
  Alcotest.(check int) "histogram count" 3 (Obs.Metrics.histogram_count h);
  Alcotest.(check int) "histogram sum" 105 (Obs.Metrics.histogram_sum h)

let test_metrics_json_sorted () =
  (* Registration order must not leak into the dump. *)
  let dump order =
    let r = Obs.Metrics.create () in
    List.iter (fun n -> Obs.Metrics.incr (Obs.Metrics.counter r n)) order;
    Obs.Json.to_string (Obs.Metrics.to_json r)
  in
  Alcotest.(check string)
    "sorted by name" (dump [ "a"; "b"; "c" ]) (dump [ "c"; "a"; "b" ])

(* ---- trace ------------------------------------------------------------ *)

let test_trace_seq_and_fanout () =
  (* The two writers, fed the same emits: the buffer holds the exact
     JSONL, the recording the same events with the same sequence. *)
  let buf = Buffer.create 64 in
  let jsonl = Obs.Trace.to_buffer buf in
  let sink, events = Obs.Trace.recording () in
  List.iter
    (fun s ->
      Obs.Trace.emit s ~time:3 ~scope:"s" ~name:"a" [];
      Obs.Trace.emit s ~time:5 ~scope:"s" ~name:"b" [ ("k", Obs.Json.Int 1) ])
    [ jsonl; sink ];
  Alcotest.(check int) "event_count" 2 (Obs.Trace.event_count sink);
  Alcotest.(check int) "event_count (buffer)" 2 (Obs.Trace.event_count jsonl);
  Alcotest.(check string) "jsonl lines"
    {|{"t":3,"seq":0,"scope":"s","ev":"a"}
{"t":5,"seq":1,"scope":"s","ev":"b","k":1}
|}
    (Buffer.contents buf);
  match events () with
  | [ e0; e1 ] ->
      Alcotest.(check int) "seq 0" 0 e0.Obs.Trace.seq;
      Alcotest.(check int) "seq 1" 1 e1.Obs.Trace.seq;
      Alcotest.(check string) "recorded = written"
        (Buffer.contents buf)
        (String.concat ""
           (List.map
              (fun e -> Obs.Json.to_string (Obs.Trace.event_to_json e) ^ "\n")
              [ e0; e1 ]))
  | _ -> Alcotest.fail "expected two recorded events"

(* ---- engine instrumentation ------------------------------------------- *)

(* A two-node ping-pong bounded by max_time; the registry's counters
   must agree exactly with Engine.stats. *)
let echo : int Simkit.Engine.behavior =
  {
    Simkit.Engine.on_start = (fun ctx -> Simkit.Engine.send ctx 2 0);
    on_message =
      (fun ctx ~src n -> if n < 10 then Simkit.Engine.send ctx src (n + 1));
    on_timer = (fun _ _ -> ());
  }

let reply : int Simkit.Engine.behavior =
  {
    Simkit.Engine.idle_behavior with
    on_message =
      (fun ctx ~src n -> if n < 10 then Simkit.Engine.send ctx src (n + 1));
  }

let test_engine_counters_match_stats () =
  let metrics = Obs.Metrics.create () in
  let sink, events = Obs.Trace.recording () in
  let delay = Simkit.Delay.partial_synchrony ~gst:0 ~delta:4 ~seed:11 in
  let engine = Simkit.Engine.create_cfg { Simkit.Run_config.default with metrics = Some metrics; trace = Some sink; delay = Some delay; max_time = 1_000_000 } in
  Simkit.Engine.add_node engine 1 echo;
  Simkit.Engine.add_node engine 2 reply;
  let stats = Simkit.Engine.run engine in
  let count name =
    Obs.Metrics.counter_value (Obs.Metrics.counter metrics name)
  in
  Alcotest.(check int) "sent counter = stats" stats.messages_sent
    (count "engine_messages_sent");
  Alcotest.(check int) "delivered counter = stats" stats.messages_delivered
    (count "engine_messages_delivered");
  Alcotest.(check int) "nothing dropped" 0 (count "engine_messages_dropped");
  let sends =
    List.length
      (List.filter
         (fun (e : Obs.Trace.event) -> e.name = "send" && e.scope = "engine")
         (events ()))
  in
  Alcotest.(check int) "one send event per message" stats.messages_sent sends

let test_engine_drop_accounting () =
  let metrics = Obs.Metrics.create () in
  let delay = Simkit.Delay.synchronous ~delta:1 in
  let engine = Simkit.Engine.create_cfg { Simkit.Run_config.default with metrics = Some metrics; delay = Some delay; max_time = 1_000_000 } in
  (* Node 1 fires at an unregistered destination. *)
  Simkit.Engine.add_node engine 1
    {
      Simkit.Engine.idle_behavior with
      on_start = (fun ctx -> Simkit.Engine.send ctx 99 0);
    };
  let stats = Simkit.Engine.run engine in
  Alcotest.(check int) "stats counts the drop" 1 stats.messages_dropped;
  Alcotest.(check int) "counter counts the drop" 1
    (Obs.Metrics.counter_value
       (Obs.Metrics.counter metrics "engine_messages_dropped"));
  Alcotest.(check int) "nothing delivered" 0 stats.messages_delivered

let test_queue_high_water () =
  let q = Simkit.Event_heap.create () in
  List.iter (fun t -> Simkit.Event_heap.push_start q ~time:t t) [ 3; 1; 2 ];
  ignore (Simkit.Event_heap.pop q);
  Simkit.Event_heap.push_start q ~time:9 9;
  Alcotest.(check int) "high water tracks the peak" 3
    (Simkit.Event_heap.high_water q)

(* ---- scp run metrics -------------------------------------------------- *)

let own_value i = Scp.Value.of_ints [ i ]

let threshold_system n t =
  let members = Pid.Set.of_range 1 n in
  Fbqs.Quorum.system_of_list
    (List.map
       (fun i -> (i, Fbqs.Slice.threshold ~members ~threshold:t))
       (Pid.Set.elements members))

let test_scp_run_populates_metrics () =
  let metrics = Obs.Metrics.create () in
  let members = Pid.Set.of_range 1 4 in
  let cfg =
    {
      Scp.Runner.default_cfg with
      run = { Simkit.Run_config.default with metrics = Some metrics };
    }
  in
  let o =
    Scp.Runner.run_cfg ~cfg
      ~system:(threshold_system 4 3)
      ~peers_of:(fun _ -> members)
      ~initial_value_of:own_value
      ~fault_of:(fun _ -> None)
      ()
  in
  Alcotest.(check bool) "run decides" true (o.all_decided && o.agreement);
  let count name =
    Obs.Metrics.counter_value (Obs.Metrics.counter metrics name)
  in
  Alcotest.(check int) "engine counter matches stats" o.stats.messages_sent
    (count "engine_messages_sent");
  Alcotest.(check int) "one decision per node" 4 (count "scp_decisions");
  Alcotest.(check bool) "votes counted" true (count "scp_votes" > 0);
  Alcotest.(check bool) "confirms counted" true (count "scp_confirms" > 0);
  Alcotest.(check bool)
    "quorum checks counted" true
    (count "scp_quorum_checks" > 0)

let suites =
  [
    ( "obs",
      [
        Alcotest.test_case "json rendering" `Quick test_json_rendering;
        Alcotest.test_case "json non-finite floats" `Quick
          test_json_non_finite;
        Alcotest.test_case "counter + idempotent registry" `Quick
          test_counter_and_registry_idempotence;
        Alcotest.test_case "labels canonicalized" `Quick test_labels_canonical;
        Alcotest.test_case "gauge and histogram" `Quick
          test_gauge_and_histogram;
        Alcotest.test_case "metrics dump sorted" `Quick
          test_metrics_json_sorted;
        Alcotest.test_case "trace seq + fanout" `Quick
          test_trace_seq_and_fanout;
        Alcotest.test_case "engine counters = stats" `Quick
          test_engine_counters_match_stats;
        Alcotest.test_case "engine drop accounting" `Quick
          test_engine_drop_accounting;
        Alcotest.test_case "queue high water" `Quick test_queue_high_water;
        Alcotest.test_case "scp run populates metrics" `Quick
          test_scp_run_populates_metrics;
      ] );
  ]
