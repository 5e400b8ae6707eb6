(* sweep: the full Corollary 2 stack through the Exec domain pool.

   Each operation is one Stellar_cup.Pipeline.scp_with_sink_detector
   run on E8's largest configuration (random_byzantine_safe, f = 1,
   sink of 6, 6 non-sink members, the random_faulty_set silent), about
   21k messages. A run's operations go through Simkit.Exec.map
   ~jobs:2 in batches of [block], and each job times its own pipeline
   call. SCP ballots and federated voting are about 98% of an
   operation; this is the only workload that goes through the Exec
   pool. As in discover, every operation gets a graph of its own. *)

open Graphkit

let f = 1
let jobs = 2
let block = 16

type input = { graph : Digraph.t; faulty : Pid.Set.t; run_seed : int }

let input ~seed k =
  let gseed = Common.derive ~seed ~stream:4 k in
  let graph, _sink =
    Generators.random_byzantine_safe ~seed:gseed ~f ~sink_size:6 ~non_sink:6 ()
  in
  {
    graph;
    faulty = Generators.random_faulty_set ~seed:gseed ~f graph;
    run_seed = Common.derive ~seed ~stream:5 k;
  }

(* The CLI convention: each process proposes its own id. *)
let initial_value_of i = Scp.Value.of_ints [ i ]

let operation inp =
  Stellar_cup.Pipeline.scp_with_sink_detector
    ~cfg:(Simkit.Run_config.with_seed inp.run_seed Simkit.Run_config.default)
    ~graph:inp.graph ~f ~faulty:inp.faulty ~initial_value_of ()

let timed inp =
  let t0 = Span.now () in
  let v = Common.guard (fun () -> Ok (operation inp)) in
  (v, (Span.now () -. t0) *. 1000.)

(* Pipeline.scp_with_sink_detector, stage by stage, with a fresh
   metrics registry in its Run_config. Returns the verdict, the run's
   spans and registry, and both stages' engine statistics. *)
let mirror ~op inp =
  let r = Span.create () in
  let metrics = Obs.Metrics.create () in
  let cfg =
    {
      Simkit.Run_config.default with
      seed = inp.run_seed;
      metrics = Some metrics;
    }
  in
  let span name g = Span.record r ~op name g in
  let verdict, stats =
    span "op" (fun () ->
        let fault_of i =
          if Pid.Set.mem i inp.faulty then Some Cup.Sink_protocol.Silent
          else None
        in
        let discovery =
          span "cup.discovery" (fun () ->
              Cup.Sink_protocol.run_cfg ~cfg ~graph:inp.graph ~f ~fault_of ())
        in
        let system =
          span "slice_builder" (fun () ->
              Pid.Map.fold
                (fun i a sys ->
                  Pid.Map.add i (Cup.Slice_builder.build_slices ~f a) sys)
                discovery.answers Pid.Map.empty)
        in
        let peers_of i =
          match Pid.Map.find_opt i discovery.answers with
          | Some (a : Cup.Sink_oracle.answer) -> a.view
          | None -> Digraph.succs inp.graph i
        in
        let scp_fault_of i =
          if Pid.Set.mem i inp.faulty || not (Pid.Map.mem i discovery.answers)
          then Some Scp.Runner.Silent
          else None
        in
        let o =
          span "scp.ballots" (fun () ->
              Scp.Runner.run_cfg
                ~cfg:
                  {
                    Scp.Runner.default_cfg with
                    run = Simkit.Run_config.with_seed (inp.run_seed + 1) cfg;
                  }
                ~system ~peers_of ~initial_value_of ~fault_of:scp_fault_of ())
        in
        let correct = Pid.Set.diff (Digraph.vertices inp.graph) inp.faulty in
        let discovered =
          Pid.Set.for_all (fun i -> Pid.Map.mem i discovery.answers) correct
        in
        ( {
            Stellar_cup.Pipeline.all_decided = o.all_decided && discovered;
            agreement = o.agreement;
            validity = o.validity;
            deciders = Pid.Map.cardinal o.decisions;
            discovery_msgs = discovery.stats.messages_sent;
            consensus_msgs = o.stats.messages_sent;
            total_time = discovery.stats.end_time + o.stats.end_time;
          },
          [ discovery.stats; o.stats ] ))
  in
  (verdict, Span.spans r, metrics, stats)

let same_verdict (a : Stellar_cup.Pipeline.verdict)
    (b : Stellar_cup.Pipeline.verdict) =
  Bool.equal a.all_decided b.all_decided
  && Bool.equal a.agreement b.agreement
  && Bool.equal a.validity b.validity
  && a.deciders = b.deciders
  && a.discovery_msgs = b.discovery_msgs
  && a.consensus_msgs = b.consensus_msgs
  && a.total_time = b.total_time

let consensus = function
  | Ok (v : Stellar_cup.Pipeline.verdict) ->
      if v.all_decided && v.agreement && v.validity then Ok ()
      else Error "no consensus"
  | Error e -> Error e

(* [l] in consecutive blocks of [n]. *)
let blocks n l =
  List.fold_left
    (fun acc x ->
      match acc with
      | b :: rest when List.length b < n -> (x :: b) :: rest
      | _ -> [ x ] :: acc)
    [] l
  |> List.rev_map List.rev

let run ~host ~seed ~ops ~trace ~setup_only ~dir:_ =
  let tally = Common.tally () in
  let timer = Common.start_setup host in
  let inputs = Array.init ops (input ~seed) in
  let batch = Array.to_list inputs in
  (* Warm-up: one batch of four jobs spawns the pool. *)
  let warm =
    Simkit.Exec.map ~jobs timed (List.init 4 (fun k -> input ~seed (-1 - k)))
  in
  List.iter
    (fun (v, _) ->
      Common.invariant tally
        (Result.is_ok (consensus v))
        "setup: warm-up run failed")
    warm;
  let setup_s, setup_reference_ms =
    Common.end_setup ~setup_only ~host timer tally
  in
  (* Traced runs take their exact cache and allocation counts first,
     sequentially over the first [counted] inputs: the two domains
     share the process-wide handle caches, so in a batch which run
     hits them depends on the interleaving. *)
  let counted = min ops 50 in
  let caches = Common.caches () in
  let cycle =
    if not trace then []
    else
      List.init counted (fun k ->
          Common.counting caches (fun () -> mirror ~op:k inputs.(k)))
  in
  (* The timed batch runs as Exec.map batches of [block] jobs, each
     after a host reading taken while the pool is parked. *)
  let w = Host.window host in
  let results, marks =
    List.split
      (List.concat_map
         (fun inputs_of_block ->
           let k = Host.read host in
           let done_ = Simkit.Exec.map ~jobs timed inputs_of_block in
           List.map (fun r -> (r, k)) done_)
         (blocks block batch))
  in
  ignore (Host.read host);
  let wall_s = Host.elapsed host w in
  let peak_rss_mb = Common.peak_rss_mb "self" in
  let verdicts = Array.of_list (List.map fst results) in
  List.iteri
    (fun i (v, _) -> Common.op_result tally ~op:i (consensus v))
    results;
  let untraced = List.map snd results in
  let times, counts, spans =
    if not trace then ([], [], [])
    else begin
      let cycle_selfs =
        Span.self_ms (List.concat_map (fun (_, s, _, _) -> s) cycle)
      in
      let cycle_ids = List.init counted Fun.id in
      let alloc name =
        Span.median_alloc_mw ~ops:cycle_ids ~keep:(String.equal name)
          cycle_selfs
      in
      let batches1 = Simkit.Exec.Pool.batches () in
      let t0 = Span.now () in
      let traced =
        Simkit.Exec.map ~jobs
          (fun (i, inp) ->
            let t0 = Span.now () in
            let m = mirror ~op:i inp in
            (m, (Span.now () -. t0) *. 1000.))
          (List.mapi (fun i inp -> (i, inp)) batch)
      in
      let batch_ms = (Span.now () -. t0) *. 1000. in
      let batches2 = Simkit.Exec.Pool.batches () in
      List.iteri
        (fun i ((v, _, _, _), _) ->
          Common.invariant tally
            (match verdicts.(i) with
            | Ok real -> same_verdict real v
            | Error _ -> false)
            (Printf.sprintf
               "op %d: traced mirror verdict differs from the pipeline" i))
        traced;
      let spans = List.concat_map (fun ((_, s, _, _), _) -> s) traced in
      let selfs = Span.self_ms spans in
      let op_ids = List.init ops Fun.id in
      let med name = Span.median_self_ms ~ops:op_ids name selfs in
      let busy = List.fold_left (fun acc (_, ms) -> acc +. ms) 0. traced in
      let sum f =
        float_of_int
          (List.fold_left (fun acc ((_, _, m, st), _) -> acc + f m st) 0 traced)
        /. float_of_int ops
      in
      let engine g =
        sum (fun _ st -> List.fold_left (fun a s -> a + g s) 0 st)
      in
      let reg name = sum (fun m _ -> Common.counter m name) in
      let delivered st =
        List.fold_left
          (fun a (s : Simkit.Engine.stats) -> a + s.messages_delivered)
          0 st
      in
      let us_per_message =
        Span.median
          (List.map
             (fun ((_, _, _, st), ms) ->
               ms *. 1000. /. float_of_int (max 1 (delivered st)))
             traced)
      in
      let times =
        [
          ("cup.discovery_ms", med "cup.discovery");
          ("slice_builder.ms", med "slice_builder");
          ("scp.ballots_ms", med "scp.ballots");
          ("engine.us_per_message", us_per_message);
          ("exec.batch_ms", batch_ms);
          ("exec.busy_ms", busy);
          ("exec.wait_ms", (float_of_int jobs *. batch_ms) -. busy);
          ( "exec.efficiency",
            Common.ratio busy (float_of_int jobs *. batch_ms) );
          ("untracked_ms", Span.median_untracked_ms ~ops:op_ids selfs);
          ( "trace_overhead_pct",
            Common.overhead_pct ~untraced ~traced:(List.map snd traced) );
        ]
      in
      let counts =
        [
          ( "engine.messages_sent",
            engine (fun s -> s.Simkit.Engine.messages_sent) );
          ("engine.messages_delivered", engine (fun s -> s.messages_delivered));
          ("engine.messages_dropped", engine (fun s -> s.messages_dropped));
          ("engine.timers_fired", engine (fun s -> s.timers_fired));
          ("engine.queue_high_water", engine (fun s -> s.queue_high_water));
          ("cup.know_received", reg "cup_know_received");
          ("cup.sink_replies", reg "cup_sink_replies");
          ("scp.quorum_checks", reg "scp_quorum_checks");
          ("scp.vblocking_checks", reg "scp_vblocking_checks");
          ("scp.votes", reg "scp_votes");
          ("scp.accepts", reg "scp_accepts");
          ("scp.confirms", reg "scp_confirms");
          ("scp.ballots_entered", reg "scp_ballots_entered");
          ("cup.alloc_mw", alloc "cup.discovery");
          ("scp.alloc_mw", alloc "scp.ballots");
          ("exec.pool_workers", float_of_int (Simkit.Exec.Pool.size ()));
          ("exec.pool_batches", float_of_int (batches2 - batches1));
        ]
        @ Common.cache_counts caches ~ops:counted
      in
      (times, counts, spans)
    end
  in
  {
    Common.setup_s;
    setup_reference_ms;
    latencies_ms = untraced;
    reference_ms = Host.around host marks;
    wall_s;
    peak_rss_mb;
    tally;
    times;
    counts;
    spans;
  }
