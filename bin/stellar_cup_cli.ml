(* stellar-cup — command-line front end.

   Noun-verb command scheme; every leaf accepts --json:
     run                  one consensus run (--pipeline scp-sd | scp-local
                          | bftcup), with --trace FILE and --metrics
     sink run             the distributed sink detector (Algorithm 3)
     graph analyze        structural analysis (SCC, sink, k-OSR, safety)
     graph render         Graphviz rendering
     experiment list      available experiment ids
     experiment show ID   one experiment table (e1..e12, e4b) or 'all'
     fbas analyze FILE    FBQS health analysis (minimal quorums,
                          intersection, blocking/splitting sets)
     fbas gen             deterministic live-network-shaped topology

   Graphs are selected with --graph fig1 | fig2 | random | family plus
   the generator parameters. Traces are JSONL streams of structured
   events stamped with logical time only, so a fixed --seed yields a
   byte-identical file on every invocation. *)

open Graphkit
open Cmdliner

(* ---- graph selection -------------------------------------------------- *)

(* The spec record and builder live in {!Serve.Api} — the daemon's
   [run] verb selects graphs with the same parameters. *)
let build_graph = Serve.Api.build_graph

let graph_term =
  let d = Serve.Api.default_graph_spec in
  let kind =
    Arg.(
      value
      & opt string d.kind
      & info [ "graph" ] ~docv:"KIND"
          ~doc:"Graph: fig1, fig2, family (generalized counter-example), \
                random (k-OSR with k = 2f+1), or file:PATH (adjacency \
                list: one 'vertex: succ succ ...' line per vertex).")
  in
  let seed =
    Arg.(value & opt int d.seed & info [ "seed" ] ~docv:"N" ~doc:"Random seed.")
  in
  let sink_size =
    Arg.(
      value & opt int d.sink_size
      & info [ "sink-size" ] ~docv:"N" ~doc:"Sink size for generators.")
  in
  let non_sink =
    Arg.(
      value & opt int d.non_sink
      & info [ "non-sink" ] ~docv:"N"
          ~doc:"Number of non-sink members for generators.")
  in
  let f =
    Arg.(
      value & opt int d.f
      & info [ "f" ] ~docv:"N" ~doc:"Fault threshold f.")
  in
  let make kind seed sink_size non_sink f =
    { Serve.Api.kind; seed; sink_size; non_sink; f }
  in
  Term.(const make $ kind $ seed $ sink_size $ non_sink $ f)

let faulty_term =
  Arg.(
    value
    & opt (list int) []
    & info [ "faulty" ] ~docv:"IDS"
        ~doc:"Comma-separated ids of silent Byzantine processes.")

let json_term =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit machine-readable JSON.")

let jobs_env =
  Cmd.Env.info Simkit.Exec.jobs_env_var
    ~doc:
      "Default worker count for every --jobs flag (CLI, daemon, bench). An \
       explicit --jobs always wins."

let jobs_term =
  Arg.(
    value
    & opt int 1
    & info [ "jobs" ] ~docv:"N" ~env:jobs_env
        ~doc:"Workers for independent sub-runs (experiment samples, \
              --samples sweeps, FBAS search shards): domains on OCaml 5, \
              forked processes otherwise, parked in a persistent pool \
              between batches. Output is byte-identical to --jobs 1; \
              parallelism only buys wall-clock.")

(* ---- observability plumbing ------------------------------------------- *)

let timing_term =
  let d = Simkit.Run_config.default in
  let gst =
    Arg.(
      value & opt int d.gst
      & info [ "gst" ] ~docv:"T" ~doc:"Global stabilization time.")
  in
  let delta =
    Arg.(
      value & opt int d.delta
      & info [ "delta" ] ~docv:"T" ~doc:"Post-GST delivery bound.")
  in
  let max_time =
    Arg.(
      value & opt int d.max_time
      & info [ "max-time" ] ~docv:"T" ~doc:"Simulation step budget.")
  in
  Term.(const (fun gst delta max_time -> (gst, delta, max_time))
        $ gst $ delta $ max_time)

let trace_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Write a JSONL structured-event trace to $(docv) ('-': \
              stdout). Deterministic for a fixed --seed.")

let metrics_term =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:"Collect and print the run's metric counters.")

(* A Run_config carrying the CLI's seed/timing flags plus freshly
   created observability sinks. Returns the config and a [finish]
   closure that flushes the trace file and hands back the JSON pieces. *)
let configure_run (spec : Serve.Api.graph_spec) (gst, delta, max_time)
    trace_path want_metrics =
  let metrics = if want_metrics then Some (Obs.Metrics.create ()) else None in
  let trace_buf = Option.map (fun _ -> Buffer.create 4096) trace_path in
  let trace = Option.map Obs.Trace.to_buffer trace_buf in
  let cfg =
    {
      Simkit.Run_config.seed = spec.seed;
      gst;
      delta;
      max_time;
      delay = None;
      metrics;
      trace;
    }
  in
  let finish () =
    (match (trace_path, trace_buf) with
    | Some "-", Some buf -> print_string (Buffer.contents buf)
    | Some path, Some buf ->
        let oc = open_out path in
        output_string oc (Buffer.contents buf);
        close_out oc;
        Format.eprintf "trace: wrote %d events to %s@."
          (Option.fold ~none:0 ~some:Obs.Trace.event_count trace)
          path
    | _ -> ());
    let json_fields =
      Option.to_list
        (Option.map (fun m -> ("metrics", Obs.Metrics.to_json m)) metrics)
      @ Option.to_list
          (Option.map
             (fun p -> ("trace_file", Obs.Json.String p))
             trace_path)
    in
    (json_fields, metrics)
  in
  (cfg, finish)

let print_json j = print_endline (Obs.Json.to_string j)

let print_report ~kind payload =
  print_json (Core.Report.envelope ~kind payload)

(* ---- run --------------------------------------------------------------- *)

let run_consensus (spec : Serve.Api.graph_spec) faulty_ids pipeline timing
    trace_path want_metrics samples jobs json =
  let g = build_graph spec in
  let faulty = Pid.Set.of_list faulty_ids in
  if samples > 1 then begin
    (* A seed sweep: [samples] independent instances at seed, seed+1, …
       run through the worker pool. Per-run sinks don't compose with
       multi-process sweeps, so the observability flags are refused
       rather than silently dropped. *)
    if trace_path <> None || want_metrics then
      failwith "--trace/--metrics apply to single runs; drop --samples";
    let stack = Stellar_cup.Pipeline.stack_of_string pipeline in
    let cfg, _ = configure_run spec timing None false in
    let verdicts =
      Stellar_cup.Pipeline.sweep ~jobs ~cfg ~stack ~graph:g ~f:spec.f ~faulty
        ~initial_value_of:(fun i -> Scp.Value.of_ints [ i ])
        (List.init samples (fun k -> spec.seed + k))
    in
    if json then
      print_report ~kind:"sweep"
        (Serve.Api.sweep_payload ~pipeline ~samples ~jobs verdicts)
    else begin
      List.iter
        (fun (seed, v) ->
          Format.printf "%s seed=%d: %a@." pipeline seed
            Stellar_cup.Pipeline.pp_verdict v)
        verdicts;
      Format.printf "sweep: %d/%d runs reached consensus@."
        (List.length
           (List.filter
              (fun (_, (v : Stellar_cup.Pipeline.verdict)) ->
                v.all_decided && v.agreement && v.validity)
              verdicts))
        samples
    end
  end
  else begin
    let cfg, finish = configure_run spec timing trace_path want_metrics in
    let verdict =
      Stellar_cup.Pipeline.run_stack
        (Stellar_cup.Pipeline.stack_of_string pipeline)
        ~cfg ~graph:g ~f:spec.f ~faulty
        ~initial_value_of:(fun i -> Scp.Value.of_ints [ i ])
    in
    let obs_fields, metrics = finish () in
    if json then
      print_report ~kind:"run"
        (Serve.Api.run_payload ~pipeline ~seed:spec.seed ~extra:obs_fields
           verdict)
    else begin
      Format.printf "%s: %a@." pipeline Stellar_cup.Pipeline.pp_verdict
        verdict;
      Option.iter (Format.printf "%a@." Obs.Metrics.pp) metrics
    end
  end

let pipeline_term =
  Arg.(
    value
    & opt string Serve.Api.default_pipeline
    & info [ "pipeline" ] ~docv:"P"
        ~doc:"Consensus stack: scp-local (Theorem 2 strawman), scp-sd \
              (Corollary 2) or bftcup (baseline).")

let samples_term =
  Arg.(
    value & opt int 1
    & info [ "samples" ] ~docv:"N"
        ~doc:"Run $(docv) independent instances at seeds seed, seed+1, … \
              (a sweep); combine with --jobs to run them in parallel.")

let run_cmd =
  Cmd.v
    (Cmd.info "run"
       ~doc:"Run one consensus instance end to end (with optional \
             structured trace and metrics), or a multi-seed sweep with \
             --samples/--jobs")
    Term.(
      const run_consensus $ graph_term $ faulty_term $ pipeline_term
      $ timing_term $ trace_term $ metrics_term $ samples_term $ jobs_term
      $ json_term)

(* ---- sink run ---------------------------------------------------------- *)

let run_sink spec faulty_ids timing trace_path want_metrics json =
  let g = build_graph spec in
  let faulty = Pid.Set.of_list faulty_ids in
  let fault_of i =
    if Pid.Set.mem i faulty then Some Cup.Sink_protocol.Silent else None
  in
  let cfg, finish = configure_run spec timing trace_path want_metrics in
  let r = Cup.Sink_protocol.run_cfg ~cfg ~graph:g ~f:spec.f ~fault_of () in
  let obs_fields, metrics = finish () in
  if json then begin
    let answers =
      List.filter_map
        (fun i ->
          Option.map
            (fun (a : Cup.Sink_oracle.answer) ->
              Obs.Json.Obj
                [
                  ("node", Obs.Json.Int i);
                  ("in_sink", Obs.Json.Bool a.in_sink);
                  ( "view",
                    Obs.Json.List
                      (List.map
                         (fun j -> Obs.Json.Int j)
                         (Pid.Set.elements a.view)) );
                ])
            (Pid.Map.find_opt i r.answers))
        (Pid.Set.elements (Digraph.vertices g))
    in
    print_json
      (Obs.Json.Obj
         (("messages", Obs.Json.Int r.stats.messages_sent)
          :: ("ticks", Obs.Json.Int r.stats.end_time)
          :: ("answers", Obs.Json.List answers)
          :: obs_fields))
  end
  else begin
    Format.printf "messages: %d, simulated ticks: %d@." r.stats.messages_sent
      r.stats.end_time;
    Pid.Set.iter
      (fun i ->
        match Pid.Map.find_opt i r.answers with
        | Some (a : Cup.Sink_oracle.answer) ->
            Format.printf "%d: get_sink -> (%b, %a)@." i a.in_sink Pid.Set.pp
              a.view
        | None ->
            if Pid.Set.mem i faulty then Format.printf "%d: (faulty)@." i
            else Format.printf "%d: no answer@." i)
      (Digraph.vertices g);
    Option.iter (Format.printf "%a@." Obs.Metrics.pp) metrics
  end

let sink_run_cmd =
  Cmd.v
    (Cmd.info "run" ~doc:"Run the distributed sink detector (Algorithm 3)")
    Term.(
      const run_sink $ graph_term $ faulty_term $ timing_term $ trace_term
      $ metrics_term $ json_term)

let sink_cmd =
  Cmd.group
    (Cmd.info "sink" ~doc:"Sink-detector operations")
    [ sink_run_cmd ]

(* ---- graph analyze ----------------------------------------------------- *)

let analyze spec faulty_ids json =
  let g = build_graph spec in
  let f = spec.f in
  let faulty = Pid.Set.of_list faulty_ids in
  let sccs = Scc.components g in
  let sink = Condensation.unique_sink g in
  let osr_ks = [ 1; f + 1; (2 * f) + 1 ] in
  if json then begin
    let pid_list s =
      Obs.Json.List (List.map (fun i -> Obs.Json.Int i) (Pid.Set.elements s))
    in
    let fields =
      [
        ("vertices", pid_list (Digraph.vertices g));
        ("sccs", Obs.Json.List (List.map pid_list sccs));
        ("sink", Option.fold ~none:Obs.Json.Null ~some:pid_list sink);
        ( "k_osr",
          Obs.Json.Obj
            (List.map
               (fun k ->
                 (string_of_int k, Obs.Json.Bool (Properties.is_k_osr g k)))
               osr_ks) );
      ]
      @
      if Pid.Set.is_empty faulty then []
      else
        [
          ("faulty", pid_list faulty);
          ( "byzantine_safe",
            Obs.Json.Bool (Properties.is_byzantine_safe g ~f ~faulty) );
          ("solvable", Obs.Json.Bool (Properties.solvable g ~f ~faulty));
        ]
    in
    print_json (Obs.Json.Obj fields)
  end
  else begin
    Format.printf "knowledge graph:@.%a@." Digraph.pp g;
    Format.printf "%a@." Metrics.pp (Metrics.compute g);
    List.iteri
      (fun i c -> Format.printf "scc %d: %a@." i Pid.Set.pp c)
      sccs;
    (match sink with
    | Some sink ->
        Format.printf "unique sink component: %a@." Pid.Set.pp sink;
        Format.printf "sink connectivity: %d@."
          (Connectivity.vertex_connectivity (Digraph.subgraph sink g))
    | None -> Format.printf "no unique sink component@.");
    List.iter
      (fun k ->
        match Properties.check_k_osr g k with
        | Ok _ -> Format.printf "%d-OSR: yes@." k
        | Error e ->
            Format.printf "%d-OSR: no (%a)@." k Properties.pp_osr_failure e)
      osr_ks;
    if not (Pid.Set.is_empty faulty) then begin
      Format.printf "F = %a@." Pid.Set.pp faulty;
      Format.printf "byzantine-safe for F: %b@."
        (Properties.is_byzantine_safe g ~f ~faulty);
      Format.printf "solvable (Theorem 1): %b@."
        (Properties.solvable g ~f ~faulty)
    end
  end

let graph_analyze_cmd =
  Cmd.v
    (Cmd.info "analyze" ~doc:"Analyse a knowledge-connectivity graph")
    Term.(const analyze $ graph_term $ faulty_term $ json_term)

(* ---- graph render ------------------------------------------------------ *)

let render spec faulty_ids output json =
  let g = build_graph spec in
  let faulty = Pid.Set.of_list faulty_ids in
  let highlight =
    Option.value ~default:Pid.Set.empty (Condensation.unique_sink g)
  in
  let dot = Dot.to_dot ~highlight ~faulty g in
  if json then
    print_json
      (Obs.Json.Obj
         [
           ("dot", Obs.Json.String dot);
           ( "output",
             if output = "-" then Obs.Json.Null else Obs.Json.String output );
         ])
  else ();
  match output with
  | "-" -> if not json then print_string dot
  | path ->
      Dot.to_file ~highlight ~faulty path g;
      if not json then Format.printf "wrote %s@." path

let graph_render_cmd =
  let output =
    Arg.(
      value & opt string "-"
      & info [ "o"; "output" ] ~docv:"PATH" ~doc:"Output path ('-': stdout).")
  in
  Cmd.v
    (Cmd.info "render" ~doc:"Emit a Graphviz rendering")
    Term.(const render $ graph_term $ faulty_term $ output $ json_term)

let graph_cmd =
  Cmd.group
    (Cmd.info "graph" ~doc:"Knowledge-graph operations")
    [ graph_analyze_cmd; graph_render_cmd ]

(* ---- experiment -------------------------------------------------------- *)

let experiments = Stellar_cup.Experiments.registry

let experiment_show which markdown jobs json =
  let tables =
    match which with
    | "all" -> Stellar_cup.Experiments.all ~jobs ()
    | id -> (
        match List.assoc_opt id experiments with
        | Some k -> [ k ~jobs ]
        | None -> failwith (Printf.sprintf "unknown experiment %S" id))
  in
  if json then
    print_json
      (Obs.Json.List (List.map Stellar_cup.Report.to_json tables))
  else if markdown then
    List.iter (fun t -> print_string (Stellar_cup.Report.to_markdown t)) tables
  else List.iter Stellar_cup.Report.print tables

let experiment_list json =
  if json then
    print_json
      (Obs.Json.List
         (List.map (fun (id, _) -> Obs.Json.String id) experiments))
  else List.iter (fun (id, _) -> print_endline id) experiments

let experiment_show_cmd =
  let which =
    Arg.(
      value & pos 0 string "all"
      & info [] ~docv:"ID" ~doc:"Experiment id (e1..e12, e4b) or 'all'.")
  in
  let markdown =
    Arg.(value & flag & info [ "markdown" ] ~doc:"Emit Markdown tables.")
  in
  Cmd.v
    (Cmd.info "show" ~doc:"Regenerate a paper artifact")
    Term.(const experiment_show $ which $ markdown $ jobs_term $ json_term)

let experiment_list_cmd =
  Cmd.v
    (Cmd.info "list" ~doc:"List available experiment ids")
    Term.(const experiment_list $ json_term)

let experiment_cmd =
  Cmd.group
    (Cmd.info "experiment" ~doc:"Paper-artifact experiments")
    [ experiment_show_cmd; experiment_list_cmd ]

(* ---- fbas -------------------------------------------------------------- *)

let load_system path =
  match Fbqs.Fbas_io.of_file path with
  | Ok sys -> sys
  | Error e -> failwith ("cannot read " ^ e)

let fbas_analyze file despite_ids blocking splitting max_size cap want_metrics
    jobs json =
  let sys = load_system file in
  let opts =
    {
      Serve.Api.despite = despite_ids;
      blocking;
      splitting;
      max_size;
      cap;
      metrics = want_metrics;
      jobs = max 1 jobs;
    }
  in
  let a = Serve.Api.analyze opts sys in
  if json then
    print_report ~kind:"fbas-analysis" (Serve.Api.analysis_payload opts a)
  else begin
    Format.printf "participants: %d@." (Pid.Set.cardinal a.participants);
    (match a.minimal_quorums with
    | [] -> Format.printf "minimal quorums: none@."
    | minq ->
        Format.printf "minimal quorums: %d (sizes %d..%d)@."
          (List.length minq)
          (List.fold_left min max_int (List.map Pid.Set.cardinal minq))
          (List.fold_left max 0 (List.map Pid.Set.cardinal minq)));
    Format.printf "top tier: %a@." Pid.Set.pp a.top_tier;
    (match a.intersection with
    | Fbqs.Enum.Intersects -> Format.printf "quorum intersection: yes@."
    | Fbqs.Enum.Disjoint (q1, q2) ->
        Format.printf "quorum intersection: NO — disjoint %a / %a@." Pid.Set.pp
          q1 Pid.Set.pp q2);
    (match a.blocking_sets with
    | None -> ()
    | Some { Fbqs.Enum.sets; complete } ->
        Format.printf "minimal blocking sets: %d%s@." (List.length sets)
          (if complete then "" else " (truncated)"));
    (match a.splitting_sets with
    | None -> ()
    | Some sets ->
        Format.printf "minimal splitting sets: %d%s@." (List.length sets)
          (match max_size with
          | Some k -> Printf.sprintf " (up to size %d)" k
          | None -> ""));
    List.iter
      (fun (b, ok) ->
        Format.printf "intersection despite %a: %b@." Pid.Set.pp b ok)
      a.despite_checks;
    Format.printf "search: explored=%d pruned=%d quorums_found=%d@."
      a.search.Fbqs.Enum.explored a.search.Fbqs.Enum.pruned
      a.search.Fbqs.Enum.found;
    Option.iter (Format.printf "%a@." Obs.Metrics.pp) a.registry
  end

let fbas_file_term =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"FILE" ~doc:"Slice system in stellar-cup fbas v1 format.")

let fbas_analyze_cmd =
  let despite =
    Arg.(
      value
      & opt_all (list int) []
      & info [ "despite" ] ~docv:"IDS"
          ~doc:"Also check quorum intersection despite deleting the \
                comma-separated node set $(docv) (repeatable).")
  in
  let blocking =
    Arg.(
      value & flag
      & info [ "blocking" ]
          ~doc:"Also enumerate minimal blocking sets (minimal hitting sets \
                of the minimal quorums).")
  in
  let splitting =
    Arg.(
      value & flag
      & info [ "splitting" ]
          ~doc:"Also enumerate minimal splitting sets over the top tier \
                (exponential in the top-tier size; see --max-size).")
  in
  let max_size =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-size" ] ~docv:"N"
          ~doc:"Bound the splitting-set sweep at candidate size $(docv).")
  in
  let cap =
    Arg.(
      value
      & opt int Serve.Api.default_analysis_options.cap
      & info [ "limit" ] ~docv:"N"
          ~doc:"List at most $(docv) sets per family in reports (counts \
                stay exact).")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Analyse a federated Byzantine quorum system: minimal quorums, \
             quorum intersection, top tier, blocking and splitting sets, \
             by branch-and-bound enumeration")
    Term.(
      const fbas_analyze $ fbas_file_term $ despite $ blocking $ splitting
      $ max_size $ cap $ metrics_term $ jobs_term $ json_term)

let fbas_gen output orgs vpo mid leaves seed json =
  let sys =
    Fbqs.Topology.stellarbeat_like ~orgs ~validators_per_org:vpo ~mid ~leaves
      ~seed ()
  in
  let text = Fbqs.Fbas_io.to_string sys in
  (match output with
  | "-" -> print_string text
  | path ->
      let oc = open_out_bin path in
      output_string oc text;
      close_out oc);
  if json then
    print_json
      (Obs.Json.Obj
         [
           ( "participants",
             Obs.Json.Int (Pid.Set.cardinal (Fbqs.Quorum.participants sys)) );
           ( "output",
             if output = "-" then Obs.Json.Null else Obs.Json.String output );
         ])
  else if output <> "-" then
    Format.printf "wrote %d nodes to %s@."
      (Pid.Set.cardinal (Fbqs.Quorum.participants sys))
      output

let fbas_gen_cmd =
  let output =
    Arg.(
      value & opt string "-"
      & info [ "o"; "output" ] ~docv:"PATH" ~doc:"Output path ('-': stdout).")
  in
  let orgs =
    Arg.(
      value & opt int 7
      & info [ "orgs" ] ~docv:"N" ~doc:"Top-tier organisations.")
  in
  let vpo =
    Arg.(
      value & opt int 3
      & info [ "validators-per-org" ] ~docv:"N"
          ~doc:"Validators per organisation.")
  in
  let mid =
    Arg.(
      value & opt int 63
      & info [ "mid" ] ~docv:"N" ~doc:"Middle-tier nodes.")
  in
  let leaves =
    Arg.(
      value & opt int 126
      & info [ "leaves" ] ~docv:"N" ~doc:"Watcher (leaf) nodes.")
  in
  let seed =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"N"
          ~doc:"Deterministic generator seed (same seed, same bytes, on \
                every OCaml version).")
  in
  Cmd.v
    (Cmd.info "gen"
       ~doc:"Generate a deterministic live-network-shaped slice system \
             (stellarbeat-like three-tier topology)")
    Term.(
      const fbas_gen $ output $ orgs $ vpo $ mid $ leaves $ seed $ json_term)

let fbas_cmd =
  Cmd.group
    (Cmd.info "fbas" ~doc:"Federated Byzantine quorum-system analysis")
    [ fbas_analyze_cmd; fbas_gen_cmd ]

(* ---- serve ------------------------------------------------------------- *)

let serve stdio socket jobs max_clients =
  let daemon = Serve.Daemon.create ~jobs:(max 1 jobs) () in
  match (stdio, socket) with
  | true, Some _ -> failwith "--stdio and --socket are mutually exclusive"
  | true, None | false, None -> Serve.Daemon.serve_stdio daemon
  | false, Some path ->
      Format.eprintf "stellar-cup serve: listening on %s@." path;
      Serve.Daemon.serve_unix ~max_clients daemon ~path

let serve_cmd =
  let stdio =
    Arg.(
      value & flag
      & info [ "stdio" ]
          ~doc:"Serve requests from stdin to stdout (the default transport; \
                the form the golden session replays through).")
  in
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Listen on a Unix domain socket at $(docv), serving up to \
                --max-clients connections concurrently, until a client \
                sends the shutdown verb.")
  in
  let jobs =
    Arg.(
      value
      & opt int 1
      & info [ "jobs" ] ~docv:"N" ~env:jobs_env
          ~doc:"Default Enum parallelism for analyze requests (a request's \
                own jobs field overrides it). Payloads are byte-identical \
                at every jobs count.")
  in
  let max_clients =
    Arg.(
      value
      & opt int Serve.Daemon.default_max_clients
      & info [ "max-clients" ] ~docv:"N"
          ~doc:"Socket connections served concurrently (--socket only; the \
                stdio transport stays strictly sequential).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the analysis service daemon: newline-delimited JSON \
             requests (ping, version, analyze, run, stats, shutdown) in, \
             versioned report envelopes out, with shared compiled-handle \
             caches and one persistent worker pool across requests and \
             clients")
    Term.(const serve $ stdio $ socket $ jobs $ max_clients)

(* ---- command wiring ---------------------------------------------------- *)

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let info =
    Cmd.info "stellar-cup" ~version:"1.0.0"
      ~doc:
        "Stellar consensus with minimal knowledge (ICDCS 2023 reproduction)"
  in
  let cmd =
    Cmd.group ~default info
      [ run_cmd; sink_cmd; graph_cmd; experiment_cmd; fbas_cmd; serve_cmd ]
  in
  (* Bad input (an unreadable or malformed file, an unknown graph kind
     or experiment) surfaces as one of the exceptions the daemon also
     turns into error envelopes: report it as a usage-level error, not
     as cmdliner's "internal error". *)
  exit
    (try Cmd.eval ~catch:false cmd
     with Failure msg | Sys_error msg | Invalid_argument msg ->
       prerr_endline ("stellar-cup: " ^ msg);
       Cmd.Exit.some_error)
