(* discover: Algorithm 3 (the distributed sink detector) alone.

   Each operation is one Cup.Sink_protocol.run_cfg on a
   random_byzantine_safe graph (f = 2, sink of 12, 12 non-sink
   members) with the generator's random_faulty_set silent, under
   default_run_config with a delay seed of its own. About 13k messages
   per operation. Discovery is about 2% of a full scp-sd run, so this
   is the only workload where a Cup change can show. f = 3 at sink 16
   costs seconds per operation, too slow for a workload.

   Every operation gets a graph of its own: per-graph cost varies
   several-fold, so many distinct graphs keep one seed's run
   representative. A traced run replays each input and checks that
   its message counts repeat exactly. *)

open Graphkit

let f = 2

type input = {
  graph : Digraph.t;
  sink : Pid.Set.t;
  faulty : Pid.Set.t;
  delay_seed : int;
}

let input ~seed k =
  let gseed = Common.derive ~seed ~stream:2 k in
  let graph, sink =
    Generators.random_byzantine_safe ~seed:gseed ~f ~sink_size:12 ~non_sink:12
      ()
  in
  {
    graph;
    sink;
    faulty = Generators.random_faulty_set ~seed:gseed ~f graph;
    delay_seed = Common.derive ~seed ~stream:3 k;
  }

let fault_of inp i =
  if Pid.Set.mem i inp.faulty then Some Cup.Sink_protocol.Silent else None

let cfg ?metrics inp =
  { Cup.Sink_protocol.default_run_config with seed = inp.delay_seed; metrics }

let operation ?metrics inp =
  Cup.Sink_protocol.run_cfg ~cfg:(cfg ?metrics inp) ~graph:inp.graph ~f
    ~fault_of:(fault_of inp) ()

(* E6's accuracy predicate: every correct process answers, [in_sink]
   matches the generator's sink, and the view lies inside the sink. *)
let accurate inp (r : Cup.Sink_protocol.run_result) =
  let correct = Pid.Set.diff (Digraph.vertices inp.graph) inp.faulty in
  Pid.Set.for_all
    (fun i ->
      match Pid.Map.find_opt i r.answers with
      | None -> false
      | Some a ->
          Bool.equal a.in_sink (Pid.Set.mem i inp.sink)
          && Pid.Set.subset a.view inp.sink)
    correct

(* E7's synchronous in-memory drive of the reachable broadcast alone:
   every process floods a GET_SINK, drained to quiescence. *)
let rbcast_alone g =
  let machines = Hashtbl.create 32 in
  let queue = Queue.create () in
  Pid.Set.iter
    (fun i ->
      Hashtbl.replace machines i
        (Cup.Rbcast.create ~self:i ~neighbors:(Digraph.succs g i) ~f ()))
    (Digraph.vertices g);
  let send src dst m = Queue.add (src, dst, m) queue in
  let drain () =
    while not (Queue.is_empty queue) do
      match Queue.pop queue with
      | src, dst, Cup.Msg.Get_sink { origin; path } -> (
          match Hashtbl.find_opt machines dst with
          | Some rb ->
              ignore
                (Cup.Rbcast.on_get_sink rb ~send:(send dst) ~src ~origin ~path)
          | None -> ())
      | _ -> ()
    done
  in
  Pid.Set.iter
    (fun i ->
      Cup.Rbcast.broadcast (Hashtbl.find machines i) ~send:(send i);
      drain ())
    (Digraph.vertices g)

let run ~host ~seed ~ops ~trace ~setup_only ~dir:_ =
  let tally = Common.tally () in
  let timer = Common.start_setup host in
  let inputs = Array.init ops (input ~seed) in
  (* Warm-up: four operations on inputs of their own. *)
  List.iter
    (fun k ->
      let warm = input ~seed (-k) in
      Common.invariant tally
        (accurate warm (operation warm))
        "setup: warm-up run inaccurate")
    [ 1; 2; 3; 4 ];
  let setup_s, setup_reference_ms =
    Common.end_setup ~setup_only ~host timer tally
  in
  let sent = Array.make ops (-1) in
  let check i inp (r : Cup.Sink_protocol.run_result) =
    sent.(i) <- r.stats.messages_sent;
    if accurate inp r then Ok () else Error "sink detector output inaccurate"
  in
  let untraced = ref [] and traced = ref [] and alone = ref [] in
  let rec_ = Span.create () and caches = Common.caches () in
  let engine = Array.make 5 0 and cup = Array.make 4 0 in
  let us_per_msg = ref [] and marks = ref [] in
  let w = Host.window host in
  for i = 0 to ops - 1 do
    let inp = inputs.(i) in
    marks := Host.read host :: !marks;
    let t0 = Span.now () in
    let r = Common.guard (fun () -> Ok (operation inp)) in
    untraced := ((Span.now () -. t0) *. 1000.) :: !untraced;
    Common.op_result tally ~op:i (Result.bind r (check i inp));
    if trace then begin
      let metrics = Obs.Metrics.create () in
      let t0 = Span.now () in
      let r =
        Common.counting caches (fun () ->
            Span.record rec_ ~op:i "op" (fun () ->
                Span.record rec_ ~op:i "cup.discovery" (fun () ->
                    operation ~metrics inp)))
      in
      let ms = (Span.now () -. t0) *. 1000. in
      traced := ms :: !traced;
      let s = r.stats in
      List.iteri
        (fun j v -> engine.(j) <- engine.(j) + v)
        [
          s.messages_sent;
          s.messages_delivered;
          s.messages_dropped;
          s.timers_fired;
          s.queue_high_water;
        ];
      List.iteri
        (fun j name -> cup.(j) <- cup.(j) + Common.counter metrics name)
        [
          "cup_know_received";
          "cup_sink_replies";
          "rbcast_relays";
          "rbcast_deliveries";
        ];
      let delivered = float_of_int (max 1 s.messages_delivered) in
      us_per_msg := (ms *. 1000. /. delivered) :: !us_per_msg;
      Common.invariant tally
        (sent.(i) = s.messages_sent)
        (Printf.sprintf "op %d: traced replay's messages differ" i);
      (* Outside the operation: an estimate of the flood's own cost. *)
      let t0 = Span.now () in
      rbcast_alone inp.graph;
      alone := ((Span.now () -. t0) *. 1000.) :: !alone
    end
  done;
  ignore (Host.read host);
  let wall_s = Host.elapsed host w in
  let peak_rss_mb = Common.peak_rss_mb "self" in
  let spans = Span.spans rec_ in
  let selfs = Span.self_ms spans in
  let op_ids = List.init ops Fun.id in
  let per_op n = float_of_int n /. float_of_int ops in
  let alloc name =
    Span.median_alloc_mw ~ops:op_ids ~keep:(String.equal name) selfs
  in
  let times =
    [
      ( "cup.discovery_ms",
        Span.median_self_ms ~ops:op_ids "cup.discovery" selfs );
      ("rbcast.alone_ms", Span.median !alone);
      ("engine.us_per_message", Span.median !us_per_msg);
      ("untracked_ms", Span.median_untracked_ms ~ops:op_ids selfs);
      ( "trace_overhead_pct",
        Common.overhead_pct ~untraced:!untraced ~traced:!traced );
    ]
  in
  let counts =
    [
      ("engine.messages_sent", per_op engine.(0));
      ("engine.messages_delivered", per_op engine.(1));
      ("engine.messages_dropped", per_op engine.(2));
      ("engine.timers_fired", per_op engine.(3));
      ("engine.queue_high_water", per_op engine.(4));
      ("cup.know_received", per_op cup.(0));
      ("cup.sink_replies", per_op cup.(1));
      ("rbcast.relays", per_op cup.(2));
      ("rbcast.deliveries", per_op cup.(3));
      ( "rbcast.deliveries_per_relay",
        Common.ratio (per_op cup.(3)) (per_op cup.(2)) );
      ("cup.alloc_mw", alloc "cup.discovery");
    ]
    @ Common.cache_counts caches ~ops
  in
  {
    Common.setup_s;
    setup_reference_ms;
    latencies_ms = List.rev !untraced;
    reference_ms = Host.around host (List.rev !marks);
    wall_s;
    peak_rss_mb;
    tally;
    times = (if trace then times else []);
    counts = (if trace then counts else []);
    spans;
  }
