(* Golden-trace determinism: for a fixed seed, two independent runs
   must produce byte-identical JSONL traces and byte-identical metric
   dumps. This is the property test/pins/dune re-checks on the built
   CLI. *)

open Graphkit

let own_value i = Scp.Value.of_ints [ i ]

let threshold_system n t =
  let members = Pid.Set.of_range 1 n in
  Fbqs.Quorum.system_of_list
    (List.map
       (fun i -> (i, Fbqs.Slice.threshold ~members ~threshold:t))
       (Pid.Set.elements members))

(* One fully instrumented SCP run; returns (trace JSONL, metrics JSON). *)
let traced_scp_run ~seed () =
  let metrics = Obs.Metrics.create () in
  let buf = Buffer.create 4096 in
  let sink = Obs.Trace.to_buffer buf in
  let members = Pid.Set.of_range 1 4 in
  let cfg =
    {
      Scp.Runner.default_cfg with
      run =
        {
          Simkit.Run_config.default with
          seed;
          metrics = Some metrics;
          trace = Some sink;
        };
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
  Alcotest.(check bool) "instrumented run decides" true o.all_decided;
  (Buffer.contents buf, Obs.Json.to_string (Obs.Metrics.to_json metrics))

let test_same_seed_same_trace () =
  let trace_a, metrics_a = traced_scp_run ~seed:42 () in
  let trace_b, metrics_b = traced_scp_run ~seed:42 () in
  Alcotest.(check bool) "trace is non-trivial" true
    (String.length trace_a > 100);
  Alcotest.(check string) "byte-identical traces" trace_a trace_b;
  Alcotest.(check string) "byte-identical metrics" metrics_a metrics_b

let test_different_seed_different_trace () =
  let trace_a, _ = traced_scp_run ~seed:1 () in
  let trace_b, _ = traced_scp_run ~seed:2 () in
  Alcotest.(check bool)
    "different delay streams diverge" true (trace_a <> trace_b)

let test_trace_shape () =
  (* Every line is a JSON object with the stamp fields; seq is dense
     from 0; run_start opens and run_end closes the stream. *)
  let trace, _ = traced_scp_run ~seed:7 () in
  let lines = String.split_on_char '\n' (String.trim trace) in
  List.iteri
    (fun i line ->
      let prefix = Printf.sprintf {|{"t":|} in
      Alcotest.(check bool)
        (Printf.sprintf "line %d is a stamped object" i)
        true
        (String.length line > String.length prefix
        && String.sub line 0 String.(length prefix) = prefix);
      let seq_marker = Printf.sprintf {|"seq":%d,|} i in
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i =
          i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool)
        (Printf.sprintf "line %d has seq %d" i i)
        true (contains line seq_marker))
    lines;
  let first = List.hd lines and last = List.nth lines (List.length lines - 1) in
  let has_ev line ev =
    let needle = Printf.sprintf {|"ev":"%s"|} ev in
    let nh = String.length line and nn = String.length needle in
    let rec go i =
      i + nn <= nh && (String.sub line i nn = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "opens with run_start" true (has_ev first "run_start");
  Alcotest.(check bool) "closes with run_end" true (has_ev last "run_end")

let test_sink_detector_trace_deterministic () =
  let traced ~seed =
    let buf = Buffer.create 4096 in
    let sink = Obs.Trace.to_buffer buf in
    let cfg = { Simkit.Run_config.default with seed; trace = Some sink } in
    let r =
      Cup.Sink_protocol.run_cfg ~cfg ~graph:Builtin.fig2 ~f:1
        ~fault_of:(fun _ -> None)
        ()
    in
    Alcotest.(check bool) "everyone answered" true
      (Pid.Map.cardinal r.answers
      = Pid.Set.cardinal (Digraph.vertices Builtin.fig2));
    Buffer.contents buf
  in
  Alcotest.(check string) "sink detector trace deterministic"
    (traced ~seed:5) (traced ~seed:5)

let suites =
  [
    ( "trace_golden",
      [
        Alcotest.test_case "same seed, same bytes" `Quick
          test_same_seed_same_trace;
        Alcotest.test_case "different seed diverges" `Quick
          test_different_seed_different_trace;
        Alcotest.test_case "JSONL shape + dense seq" `Quick test_trace_shape;
        Alcotest.test_case "sink detector deterministic" `Quick
          test_sink_detector_trace_deterministic;
      ] );
  ]
