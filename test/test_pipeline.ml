open Graphkit
open Stellar_cup

let own_value i = Scp.Value.of_ints [ i ]

let ok name (v : Pipeline.verdict) =
  Alcotest.(check bool) (name ^ ": all decided") true v.all_decided;
  Alcotest.(check bool) (name ^ ": agreement") true v.agreement;
  Alcotest.(check bool) (name ^ ": validity") true v.validity

let test_scp_sd_on_fig2 () =
  let v =
    Pipeline.scp_with_sink_detector ~graph:Builtin.fig2 ~f:1
      ~faulty:(Pid.Set.singleton 3) ~initial_value_of:own_value ()
  in
  ok "scp+sd fig2" v;
  Alcotest.(check int) "six deciders" 6 v.deciders;
  Alcotest.(check bool) "paid a discovery phase" true (v.discovery_msgs > 0)

let test_bftcup_on_fig2 () =
  let v =
    Pipeline.bftcup ~graph:Builtin.fig2 ~f:1 ~faulty:(Pid.Set.singleton 3)
      ~initial_value_of:own_value ()
  in
  ok "bftcup fig2" v

let test_scp_local_violation_vs_benign () =
  let g = Generators.fig2_family ~sink_size:4 ~non_sink:3 in
  let sink_side i = i < 4 in
  let adversarial =
    Simkit.Delay.targeted ~gst:50_000 ~delta:5 ~seed:3 ~slow:(fun a b ->
        sink_side a <> sink_side b)
  in
  let value_of i = Scp.Value.of_ints [ (if sink_side i then 1 else 2) ] in
  let cfg =
    {
      Simkit.Run_config.default with
      max_time = 120_000;
      delay = Some adversarial;
    }
  in
  let v =
    Pipeline.scp_with_local_slices ~cfg ~graph:g ~f:1 ~faulty:Pid.Set.empty
      ~initial_value_of:value_of ()
  in
  Alcotest.(check bool) "local slices + adversary: decided" true v.all_decided;
  Alcotest.(check bool) "local slices + adversary: agreement broken" false
    v.agreement

let test_nonsink_threshold_ablation () =
  (* Larger non-sink slices (2f+1 instead of f+1) remain safe; they are
     simply more demanding. *)
  let v =
    Pipeline.scp_with_sink_detector ~graph:Builtin.fig2 ~f:1
      ~nonsink_threshold:3 ~faulty:Pid.Set.empty ~initial_value_of:own_value
      ()
  in
  ok "non-sink threshold 2f+1" v

let test_verdict_shape () =
  let v =
    Pipeline.scp_with_local_slices ~graph:Builtin.fig2 ~f:1
      ~faulty:Pid.Set.empty ~initial_value_of:own_value ()
  in
  Alcotest.(check int) "no discovery phase for local slices" 0
    v.discovery_msgs;
  Alcotest.(check bool) "consensus messages counted" true
    (v.consensus_msgs > 0)

let prop_pipelines_agree_across_seeds =
  QCheck.Test.make ~count:5
    ~name:"scp+sd and bftcup both solve random instances"
    QCheck.(int_bound 50)
    (fun seed ->
      let f = 1 in
      let g, _ =
        Generators.random_byzantine_safe ~seed ~f ~sink_size:5 ~non_sink:2 ()
      in
      let faulty = Generators.random_faulty_set ~seed ~f g in
      let cfg = Simkit.Run_config.with_seed seed Simkit.Run_config.default in
      let a =
        Pipeline.scp_with_sink_detector ~cfg ~graph:g ~f ~faulty
          ~initial_value_of:own_value ()
      in
      let b =
        Pipeline.bftcup ~cfg ~graph:g ~f ~faulty ~initial_value_of:own_value ()
      in
      a.all_decided && a.agreement && b.all_decided && b.agreement)

let test_bftcup_honours_cfg_sinks () =
  (* BFT-CUP runs on the config it is given: both stages count into its
     registry and emit into its trace, under its delay model. *)
  let sync () =
    {
      Simkit.Run_config.default with
      delay = Some (Simkit.Delay.synchronous ~delta:1);
    }
  in
  let metrics = Obs.Metrics.create () in
  let trace, events = Obs.Trace.recording () in
  let cfg = { (sync ()) with metrics = Some metrics; trace = Some trace } in
  let v =
    Pipeline.bftcup ~cfg ~graph:Builtin.fig2 ~f:1 ~faulty:Pid.Set.empty
      ~initial_value_of:own_value ()
  in
  ok "bftcup with sinks" v;
  Alcotest.(check int) "engine_messages_sent = discovery + consensus"
    (v.discovery_msgs + v.consensus_msgs)
    (Obs.Metrics.counter_value
       (Obs.Metrics.counter metrics "engine_messages_sent"));
  let scopes = List.map (fun (e : Obs.Trace.event) -> e.scope) (events ()) in
  Alcotest.(check bool) "engine events traced" true (List.mem "engine" scopes);
  Alcotest.(check bool) "cup events traced" true (List.mem "cup" scopes);
  let discovery =
    Cup.Sink_protocol.run_cfg ~cfg:(sync ()) ~graph:Builtin.fig2 ~f:1
      ~fault_of:(fun _ -> None)
      ()
  in
  Alcotest.(check int) "discovery ran on the config's delay model"
    discovery.stats.messages_sent v.discovery_msgs

let suites =
  [
    ( "pipeline",
      [
        Alcotest.test_case "scp+sd on fig2" `Quick test_scp_sd_on_fig2;
        Alcotest.test_case "bftcup on fig2" `Quick test_bftcup_on_fig2;
        Alcotest.test_case "scp-local: adversarial vs benign" `Quick
          test_scp_local_violation_vs_benign;
        Alcotest.test_case "non-sink threshold ablation" `Quick
          test_nonsink_threshold_ablation;
        Alcotest.test_case "verdict bookkeeping" `Quick test_verdict_shape;
        QCheck_alcotest.to_alcotest prop_pipelines_agree_across_seeds;
        Alcotest.test_case "bftcup honours cfg sinks" `Quick
          test_bftcup_honours_cfg_sinks;
      ] );
  ]
