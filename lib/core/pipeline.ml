open Graphkit

type verdict = {
  all_decided : bool;
  agreement : bool;
  validity : bool;
  deciders : int;
  discovery_msgs : int;
  consensus_msgs : int;
  total_time : int;
}

let pp_verdict ppf v =
  Format.fprintf ppf
    "decided=%b agreement=%b validity=%b deciders=%d msgs=%d+%d time=%d"
    v.all_decided v.agreement v.validity v.deciders v.discovery_msgs
    v.consensus_msgs v.total_time

let of_scp_outcome ?(discovery_msgs = 0) ?(discovery_time = 0)
    (o : Scp.Runner.outcome) =
  {
    all_decided = o.all_decided;
    agreement = o.agreement;
    validity = o.validity;
    deciders = Pid.Map.cardinal o.decisions;
    discovery_msgs;
    consensus_msgs = o.stats.messages_sent;
    total_time = discovery_time + o.stats.end_time;
  }

let scp_cfg cfg =
  { Scp.Runner.default_cfg with run = cfg }

let scp_with_local_slices ?(cfg = Simkit.Run_config.default) ~graph ~f ~faulty
    ~initial_value_of () =
  let pd = Cup.Participant_detector.of_graph ~f graph in
  let system = Cup.Local_slices.system ~rule:Cup.Local_slices.all_but_one pd in
  let peers_of i = Cup.Participant_detector.query pd i in
  let fault_of i =
    if Pid.Set.mem i faulty then Some Scp.Runner.Silent else None
  in
  of_scp_outcome
    (Scp.Runner.run_cfg ~cfg:(scp_cfg cfg) ~system ~peers_of
       ~initial_value_of ~fault_of ())

let scp_with_sink_detector ?(cfg = Simkit.Run_config.default)
    ?nonsink_threshold ~graph ~f ~faulty ~initial_value_of () =
  (* Stage 1: the knowledge-increasing protocol (Algorithm 3). *)
  let fault_of i =
    if Pid.Set.mem i faulty then Some Cup.Sink_protocol.Silent else None
  in
  let discovery = Cup.Sink_protocol.run_cfg ~cfg ~graph ~f ~fault_of () in
  (* Stage 2: Algorithm 2 slices from each process's own answer. *)
  let slices_of_answer (a : Cup.Sink_oracle.answer) =
    match (a.in_sink, nonsink_threshold) with
    | false, Some threshold -> Fbqs.Slice.threshold ~members:a.view ~threshold
    | _ -> Cup.Slice_builder.build_slices ~f a
  in
  let system =
    Pid.Map.fold
      (fun i a sys -> Pid.Map.add i (slices_of_answer a) sys)
      discovery.answers Pid.Map.empty
  in
  let peers_of i =
    match Pid.Map.find_opt i discovery.answers with
    | Some (a : Cup.Sink_oracle.answer) -> a.view
    | None -> Digraph.succs graph i
  in
  let scp_fault_of i =
    if Pid.Set.mem i faulty then Some Scp.Runner.Silent
    else if not (Pid.Map.mem i discovery.answers) then Some Scp.Runner.Silent
    else None
  in
  let verdict =
    (* Stage 2 gets a distinct stream of delivery delays. *)
    let scp_run = Simkit.Run_config.with_seed (cfg.seed + 1) cfg in
    of_scp_outcome ~discovery_msgs:discovery.stats.messages_sent
      ~discovery_time:discovery.stats.end_time
      (Scp.Runner.run_cfg ~cfg:(scp_cfg scp_run) ~system ~peers_of
         ~initial_value_of ~fault_of:scp_fault_of ())
  in
  (* "All decided" must cover every correct process of the graph, not
     just those that survived discovery. *)
  let correct = Pid.Set.diff (Digraph.vertices graph) faulty in
  let discovery_complete =
    Pid.Set.for_all (fun i -> Pid.Map.mem i discovery.answers) correct
  in
  { verdict with all_decided = verdict.all_decided && discovery_complete }

type stack = Scp_local | Scp_sink_detector | Bftcup

let bftcup ?(cfg = Simkit.Run_config.default) ~graph ~f ~faulty
    ~initial_value_of () =
  let o = Bftcup.Protocol.run ~cfg ~graph ~f ~initial_value_of ~faulty () in
  {
    all_decided = o.all_decided;
    agreement = o.agreement;
    validity = o.validity;
    deciders = Pid.Map.cardinal o.decisions;
    discovery_msgs = o.discovery_stats.messages_sent;
    consensus_msgs = o.consensus_stats.messages_sent;
    total_time = o.discovery_stats.end_time + o.consensus_stats.end_time;
  }

let stack_of_string = function
  | "scp-local" -> Scp_local
  | "scp-sd" -> Scp_sink_detector
  | "bftcup" -> Bftcup
  | other -> failwith (Printf.sprintf "unknown pipeline %S" other)

let run_stack stack ~cfg ~graph ~f ~faulty ~initial_value_of =
  match stack with
  | Scp_local ->
      scp_with_local_slices ~cfg ~graph ~f ~faulty ~initial_value_of ()
  | Scp_sink_detector ->
      scp_with_sink_detector ~cfg ~graph ~f ~faulty ~initial_value_of ()
  | Bftcup -> bftcup ~cfg ~graph ~f ~faulty ~initial_value_of ()

let sweep ?(jobs = 1) ?(cfg = Simkit.Run_config.default) ~stack ~graph ~f
    ~faulty ~initial_value_of seeds =
  (* Every seed's run reads the same immutable [graph]: domain workers
     share it in the parent's heap, fork workers inherit it. A graph
     analysis inside a run (sink detection, quorum checks) compiles
     what it needs for that run alone (no process-wide memo exists,
     DESIGN.md §12), so the runs share no mutable state. *)
  (* Observability sinks are per-run mutable state; a sweep's fork
     workers each live in their own process (sinks attached to the
     parent's config would silently collect nothing), and domain
     workers would interleave into them nondeterministically. Strip
     them up front — the sweep is a measurement harness, the single-run
     entry points remain the observability path. *)
  let base =
    { cfg with Simkit.Run_config.metrics = None; trace = None }
  in
  let verdicts =
    Simkit.Exec.map ~jobs
      (fun seed ->
        run_stack stack
          (* lint: allow R1 — base is sink-stripped above: metrics/trace are None, all other fields immutable *)
          ~cfg:(Simkit.Run_config.with_seed seed base)
          ~graph ~f ~faulty ~initial_value_of)
      seeds
  in
  List.combine seeds verdicts
