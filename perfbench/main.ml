(* One workload run, in a fresh process:

     main.exe WORKLOAD --seed N --ops N --trace 0|1 --dir DIR
              [--cli PATH] [--setup-only]

   prints one JSON object: set-up time, every timed operation's
   latency, the host readings around each (see host.ml), the timed
   wall time, peak memory, the failure tally and, for traced runs, the
   per-layer timings and exact counts. Spans are written to
   DIR/spans.jsonl when the run ends. perfbench/run.py turns this into
   the benchmark's end-to-end and per-layer metrics.

     main.exe --host-helper

   is the host-reading helper a run starts for itself. *)

let main () =
  let workload = ref "" and seed = ref 1 and ops = ref 0 and trace = ref 0 in
  let dir = ref "" and cli = ref "" and setup_only = ref false in
  Arg.parse
    [
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--ops", Arg.Set_int ops, "N timed operations");
      ("--trace", Arg.Set_int trace, "0|1 traced run");
      ("--dir", Arg.Set_string dir, "DIR work directory for inputs");
      ("--cli", Arg.Set_string cli, "PATH stellar-cup executable (serve)");
      ("--setup-only", Arg.Set setup_only, " stop after set-up");
    ]
    (fun w -> workload := w)
    "main.exe WORKLOAD [options]";
  if !ops < 1 || !dir = "" then begin
    prerr_endline "main.exe: --ops N (N >= 1) and --dir DIR are required";
    exit 2
  end;
  (* The program must see its own defaults, not the caller's
     environment: an empty value reads as unset. *)
  Unix.putenv Simkit.Exec.jobs_env_var "";
  Unix.putenv "STELLAR_CUP_CACHE_CAPACITY" "";
  let seed = !seed and ops = !ops and setup_only = !setup_only in
  let trace = !trace = 1 and dir = !dir in
  let workload =
    match !workload with
    | "analyze" -> Wl_analyze.run ~seed ~ops ~trace ~setup_only ~dir
    | "discover" -> Wl_discover.run ~seed ~ops ~trace ~setup_only ~dir
    | "sweep" -> Wl_sweep.run ~seed ~ops ~trace ~setup_only ~dir
    | "serve" -> Wl_serve.run ~cli:!cli ~seed ~ops ~trace ~setup_only ~dir
    | w ->
        Printf.eprintf "main.exe: unknown workload %S\n" w;
        exit 2
  in
  let r =
    try Host.with_helper (fun host -> workload ~host)
    with Common.Setup_done ((setup_s, setup_reference_ms), tally) ->
      {
        Common.setup_s;
        setup_reference_ms;
        latencies_ms = [];
        reference_ms = [];
        wall_s = 0.;
        peak_rss_mb = 0.;
        tally;
        times = [];
        counts = [];
        spans = [];
      }
  in
  if trace then Span.write_jsonl (Filename.concat dir "spans.jsonl") r.spans;
  let num x = Obs.Json.Float x in
  let pairs l = Obs.Json.Obj (List.map (fun (k, v) -> (k, num v)) l) in
  print_endline
    (Obs.Json.to_string
       (Obs.Json.Obj
          [
            ("setup_s", num r.setup_s);
            ("setup_reference_ms", num r.setup_reference_ms);
            ("latencies_ms", Obs.Json.List (List.map num r.latencies_ms));
            ("reference_ms", Obs.Json.List (List.map num r.reference_ms));
            ("wall_s", num r.wall_s);
            ("peak_rss_mb", num r.peak_rss_mb);
            ("attempted", Obs.Json.Int r.tally.attempted);
            ("failed", Obs.Json.Int r.tally.failed);
            ("sound", Obs.Json.Bool r.tally.sound);
            ( "errors",
              Obs.Json.List
                (List.map (fun e -> Obs.Json.String e) r.tally.errors) );
            ("times", pairs r.times);
            ("counts", pairs r.counts);
          ]))

let () =
  if Array.mem Host.helper_flag Sys.argv then Host.helper () else main ()
