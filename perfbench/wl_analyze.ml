(* analyze: the `fbas analyze --blocking --despite 0,1,2 --metrics --json`
   path without process start-up.

   Each operation re-reads a stellarbeat-shaped FBAS file (210 nodes,
   3024 slices) with Fbas_io.of_file, runs Serve.Api.analyze at jobs 1
   and renders the fbas-analysis envelope. Enum is about 95% of the
   operation; Simkit, Cup, Scp, Exec and the daemon caches are
   bypassed. Every operation parses a fresh system, so the compiled
   handle caches never hit yet keep dead systems alive: memory moves
   here when a cache policy changes.

   The operations cycle over [topologies] files. File 0 is the
   topology of the workload seed itself (seed 1 is the committed
   fixture, byte for byte); the others use derived seeds. Search cost
   differs by topology (seed 1 is among the most expensive), so a
   cycle of many topologies keeps one seed's run representative: with
   25 of them, p90 was the cost of a seed's two or three dearest
   topologies and moved from seed to seed. *)

open Graphkit

let topologies = 50
let fixture = "test/fixtures/live_network.fbas"
let golden = "test/fixtures/live_network.analysis.json"

let opts =
  {
    Serve.Api.default_analysis_options with
    blocking = true;
    despite = [ [ 0; 1; 2 ] ];
    metrics = true;
    jobs = 1;
  }

let render a =
  Obs.Json.to_string
    (Core.Report.envelope ~kind:"fbas-analysis"
       (Serve.Api.analysis_payload opts a))

let parse path =
  match Fbqs.Fbas_io.of_file path with
  | Ok sys -> sys
  | Error e -> failwith (path ^ ": " ^ e)

(* The real entry point. *)
let operation path = render (Serve.Api.analyze opts (parse path))

(* Serve.Api.analyze, call by call, with a span around each layer. *)
let mirror r ~op path =
  let span name f = Span.record r ~op name f in
  Span.record r ~op "op" (fun () ->
      let sys = span "fbas_io.parse" (fun () -> parse path) in
      let metrics = Obs.Metrics.create () in
      let t =
        span "quorum.compile" (fun () -> Fbqs.Enum.prepare ~metrics sys)
      in
      let participants = Fbqs.Quorum.participants sys in
      let minimal_quorums =
        span "enum.min_quorums" (fun () -> Fbqs.Enum.minimal_quorums ~jobs:1 t)
      in
      let intersection =
        span "enum.intersection" (fun () ->
            Fbqs.Enum.check_intersection ~jobs:1 t)
      in
      let top_tier =
        span "enum.top_tier" (fun () -> Fbqs.Enum.top_tier ~jobs:1 t)
      in
      let blocking_sets =
        span "enum.blocking" (fun () ->
            Some (Fbqs.Enum.minimal_blocking_sets ~jobs:1 t))
      in
      let despite_checks =
        span "enum.despite" (fun () ->
            List.map
              (fun ids ->
                let b = Pid.Set.of_list ids in
                ( b,
                  Fbqs.Enum.quorum_intersection_despite ~metrics ~jobs:1 sys b
                ))
              opts.despite)
      in
      let a =
        {
          Serve.Api.participants;
          minimal_quorums;
          top_tier;
          intersection;
          blocking_sets;
          splitting_sets = None;
          despite_checks;
          search = Fbqs.Enum.stats t;
          registry = Some metrics;
        }
      in
      let out = span "render" (fun () -> render a) in
      (out, metrics))

(* Cheap structural checks on a first visit, before its bytes become
   the reference for later visits of the same topology. *)
let well_formed out =
  match Obs.Json.of_string out with
  | Error e -> Error ("report does not parse: " ^ e)
  | Ok report ->
      let at path = Common.json_at ("payload" :: path) report in
      if at [ "participants" ] <> Some (Obs.Json.Int 210) then
        Error "participants is not 210"
      else if at [ "stats"; "found" ] <> at [ "minimal_quorums"; "count" ] then
        Error "stats.found <> minimal_quorums.count"
      else if at [ "blocking"; "complete" ] <> Some (Obs.Json.Bool true) then
        Error "blocking enumeration incomplete"
      else Ok ()

let run ~host ~seed ~ops ~trace ~setup_only ~dir =
  let tally = Common.tally () in
  let timer = Common.start_setup host in
  let paths =
    Array.init topologies (fun k ->
        let s = if k = 0 then seed else Common.derive ~seed ~stream:1 k in
        let path = Filename.concat dir (Printf.sprintf "analyze-%02d.fbas" k) in
        Fbqs.Fbas_io.to_file path (Fbqs.Topology.stellarbeat_like ~seed:s ());
        path)
  in
  (* Two warm-up operations on topology 0; the first one's bytes are
     its reference (and, at seed 1, must be the committed golden). *)
  let reference = Array.make topologies None in
  let warm = operation paths.(0) in
  reference.(0) <- Some warm;
  Common.invariant tally
    (String.equal warm (operation paths.(0)))
    "setup: warm-up operations disagree";
  Common.invariant tally
    (Result.is_ok (well_formed warm))
    "setup: warm-up report malformed";
  if seed = 1 then begin
    Common.invariant tally
      (String.equal (Common.read_file paths.(0)) (Common.read_file fixture))
      "setup: seed 1 topology differs from the committed fixture";
    Common.invariant tally
      (String.equal (warm ^ "\n") (Common.read_file golden))
      "setup: seed 1 report differs from the committed golden"
  end;
  let setup_s, setup_reference_ms =
    Common.end_setup ~setup_only ~host timer tally
  in
  let check i out =
    let k = i mod topologies in
    match reference.(k) with
    | Some expected when String.equal out expected -> Ok ()
    | Some _ ->
        Error
          (Printf.sprintf "topology %d: bytes differ from its first visit" k)
    | None ->
        reference.(k) <- Some out;
        well_formed out
  in
  let untraced = ref [] and traced = ref [] in
  let r = Span.create () and caches = Common.caches () in
  let enum = [| 0; 0; 0 |] and marks = ref [] in
  let w = Host.window host in
  for i = 0 to ops - 1 do
    let path = paths.(i mod topologies) in
    marks := Host.read host :: !marks;
    let t0 = Span.now () in
    let out = Common.guard (fun () -> Ok (operation path)) in
    untraced := ((Span.now () -. t0) *. 1000.) :: !untraced;
    Common.op_result tally ~op:i (Result.bind out (check i));
    (* Traced runs follow each operation with its mirror on the same
       input, so both halves see the same drift of the machine. *)
    if trace then begin
      let t0 = Span.now () in
      let out, metrics =
        Common.counting caches (fun () -> mirror r ~op:i path)
      in
      traced := ((Span.now () -. t0) *. 1000.) :: !traced;
      List.iteri
        (fun j name -> enum.(j) <- enum.(j) + Common.counter metrics name)
        [ "fbqs_enum_explored"; "fbqs_enum_pruned"; "fbqs_enum_quorums_found" ];
      Common.invariant tally
        (Option.equal String.equal (Some out) reference.(i mod topologies))
        (Printf.sprintf "op %d: traced mirror bytes differ from Serve.Api" i)
    end
  done;
  ignore (Host.read host);
  let wall_s = Host.elapsed host w in
  let peak_rss_mb = Common.peak_rss_mb "self" in
  let spans = Span.spans r in
  let selfs = Span.self_ms spans in
  let op_ids = List.init ops Fun.id in
  let med name = Span.median_self_ms ~ops:op_ids name selfs in
  let alloc keep = Span.median_alloc_mw ~ops:op_ids ~keep selfs in
  let per_op n = float_of_int n /. float_of_int ops in
  let explored = per_op enum.(0) and found = per_op enum.(2) in
  let times =
    [
      ("fbas_io.parse_ms", med "fbas_io.parse");
      ("quorum.compile_ms", med "quorum.compile");
      ("enum.min_quorums_ms", med "enum.min_quorums");
      ("enum.intersection_ms", med "enum.intersection");
      ("enum.top_tier_ms", med "enum.top_tier");
      ("enum.blocking_ms", med "enum.blocking");
      ("enum.despite_ms", med "enum.despite");
      ("render.ms", med "render");
      ("untracked_ms", Span.median_untracked_ms ~ops:op_ids selfs);
      ( "trace_overhead_pct",
        Common.overhead_pct ~untraced:!untraced ~traced:!traced );
    ]
  in
  let counts =
    [
      ("fbas_io.alloc_mw", alloc (String.equal "fbas_io.parse"));
      ("enum.alloc_mw", alloc (String.starts_with ~prefix:"enum."));
      ("render.alloc_mw", alloc (String.equal "render"));
      ("enum.explored", explored);
      ("enum.pruned", per_op enum.(1));
      ("enum.found", found);
      ("enum.found_per_explored", Common.ratio found explored);
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
