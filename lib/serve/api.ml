(* The analysis/run surface shared by the CLI and the daemon.

   Both front ends answer the same questions — "analyze this FBQS",
   "run this consensus stack" — and both must emit byte-identical JSON
   for identical inputs, so the result assembly lives here exactly
   once. The CLI wraps each payload in a {!Core.Report} envelope of
   its own kind; the daemon wraps the same payload in a response
   envelope carrying the request id. *)

open Graphkit

(* ---- graph selection -------------------------------------------------- *)

type graph_spec = {
  kind : string;
  seed : int;
  sink_size : int;
  non_sink : int;
  f : int;
}

let default_graph_spec =
  { kind = "fig2"; seed = 1; sink_size = 5; non_sink = 4; f = 1 }

let build_graph spec =
  match spec.kind with
  | "fig1" -> Builtin.fig1
  | "fig2" -> Builtin.fig2
  | "family" ->
      Generators.fig2_family ~sink_size:spec.sink_size ~non_sink:spec.non_sink
  | "random" ->
      Generators.random_k_osr ~seed:spec.seed ~sink_size:spec.sink_size
        ~non_sink:spec.non_sink
        ~k:((2 * spec.f) + 1)
        ()
  | other when String.length other > 5 && String.sub other 0 5 = "file:" -> (
      let path = String.sub other 5 (String.length other - 5) in
      match Parse.of_file path with
      | Ok g -> g
      | Error e -> failwith ("cannot read " ^ e))
  | other -> failwith (Printf.sprintf "unknown graph kind %S" other)

(* ---- consensus runs --------------------------------------------------- *)

let verdict_json (v : Stellar_cup.Pipeline.verdict) =
  Obs.Json.Obj
    [
      ("all_decided", Obs.Json.Bool v.all_decided);
      ("agreement", Obs.Json.Bool v.agreement);
      ("validity", Obs.Json.Bool v.validity);
      ("deciders", Obs.Json.Int v.deciders);
      ("discovery_msgs", Obs.Json.Int v.discovery_msgs);
      ("consensus_msgs", Obs.Json.Int v.consensus_msgs);
      ("total_time", Obs.Json.Int v.total_time);
    ]

let default_pipeline = "scp-sd"

let run_payload ~pipeline ~seed ~extra verdict =
  Obs.Json.Obj
    (("pipeline", Obs.Json.String pipeline)
    :: ("seed", Obs.Json.Int seed)
    :: ("verdict", verdict_json verdict)
    :: extra)

let sweep_payload ~pipeline ~samples ~jobs verdicts =
  let all_ok =
    List.for_all
      (fun (_, (v : Stellar_cup.Pipeline.verdict)) ->
        v.all_decided && v.agreement && v.validity)
      verdicts
  in
  Obs.Json.Obj
    [
      ("pipeline", Obs.Json.String pipeline);
      ("samples", Obs.Json.Int samples);
      ("jobs", Obs.Json.Int jobs);
      ("all_consensus", Obs.Json.Bool all_ok);
      ( "runs",
        Obs.Json.List
          (List.map
             (fun (seed, v) ->
               Obs.Json.Obj
                 [
                   ("seed", Obs.Json.Int seed); ("verdict", verdict_json v);
                 ])
             verdicts) );
    ]

(* ---- FBQS analysis ---------------------------------------------------- *)

type analysis_options = {
  despite : int list list;
  blocking : bool;
  splitting : bool;
  max_size : int option;
  cap : int;
  metrics : bool;
  jobs : int;
}

let default_analysis_options =
  {
    despite = [];
    blocking = false;
    splitting = false;
    max_size = None;
    cap = 64;
    metrics = false;
    jobs = 1;
  }

type analysis = {
  participants : Pid.Set.t;
  minimal_quorums : Pid.Set.t list;
  top_tier : Pid.Set.t;
  intersection : Fbqs.Enum.intersection;
  blocking_sets : Fbqs.Enum.blocking option;
  splitting_sets : Pid.Set.t list option;
  despite_checks : (Pid.Set.t * bool) list;
  search : Fbqs.Enum.stats;
  registry : Obs.Metrics.t option;
}

let analyze_compiled opts c =
  (* [opts.jobs] moves wall-clock only: every Enum entry point is
     byte-identical at every jobs count, and the payload never
     mentions jobs, so reports stay comparable across executors. *)
  let jobs = opts.jobs in
  let metrics = if opts.metrics then Some (Obs.Metrics.create ()) else None in
  let t = Fbqs.Enum.of_compiled ?metrics c in
  let participants = Fbqs.Enum.participants t in
  let minimal_quorums = Fbqs.Enum.minimal_quorums ~jobs t in
  let intersection = Fbqs.Enum.check_intersection ~jobs t in
  let top_tier = Fbqs.Enum.top_tier ~jobs t in
  let blocking_sets =
    if opts.blocking then Some (Fbqs.Enum.minimal_blocking_sets ~jobs t)
    else None
  in
  let splitting_sets =
    if opts.splitting then
      Some
        (Fbqs.Enum.minimal_splitting_sets ?metrics ?max_size:opts.max_size
           ~jobs t)
    else None
  in
  let despite_checks =
    List.map
      (fun ids ->
        let b = Pid.Set.of_list ids in
        (b, Fbqs.Enum.intersects_despite ?metrics ~jobs c b))
      opts.despite
  in
  {
    participants;
    minimal_quorums;
    top_tier;
    intersection;
    blocking_sets;
    splitting_sets;
    despite_checks;
    search = Fbqs.Enum.stats t;
    registry = metrics;
  }

let analyze opts sys = analyze_compiled opts (Fbqs.Quorum.Compiled.compile sys)

let pid_set_json s =
  Obs.Json.List (List.map (fun i -> Obs.Json.Int i) (Pid.Set.elements s))

let set_family_json ~cap sets =
  let count = List.length sets in
  let sizes = List.map Pid.Set.cardinal sets in
  let listed = List.filteri (fun i _ -> i < cap) sets in
  [
    ("count", Obs.Json.Int count);
    ( "size_min",
      match sizes with
      | [] -> Obs.Json.Null
      | s -> Obs.Json.Int (List.fold_left min max_int s) );
    ( "size_max",
      match sizes with
      | [] -> Obs.Json.Null
      | s -> Obs.Json.Int (List.fold_left max 0 s) );
    ("listed", Obs.Json.Int (List.length listed));
    ("sets", Obs.Json.List (List.map pid_set_json listed));
  ]

let analysis_payload opts a =
  let cap = opts.cap in
  let fields =
    [
      ("participants", Obs.Json.Int (Pid.Set.cardinal a.participants));
      ( "minimal_quorums",
        Obs.Json.Obj (set_family_json ~cap a.minimal_quorums) );
      ("top_tier", pid_set_json a.top_tier);
      ( "intersection",
        match a.intersection with
        | Fbqs.Enum.Intersects ->
            Obs.Json.Obj [ ("intersects", Obs.Json.Bool true) ]
        | Fbqs.Enum.Disjoint (q1, q2) ->
            Obs.Json.Obj
              [
                ("intersects", Obs.Json.Bool false);
                ("witness", Obs.Json.List [ pid_set_json q1; pid_set_json q2 ]);
              ] );
    ]
    @ (match a.blocking_sets with
      | None -> []
      | Some { Fbqs.Enum.sets; complete } ->
          [
            ( "blocking",
              Obs.Json.Obj
                (set_family_json ~cap sets
                @ [ ("complete", Obs.Json.Bool complete) ]) );
          ])
    @ (match a.splitting_sets with
      | None -> []
      | Some sets ->
          [ ("splitting", Obs.Json.Obj (set_family_json ~cap sets)) ])
    @ (match a.despite_checks with
      | [] -> []
      | l ->
          [
            ( "despite",
              Obs.Json.List
                (List.map
                   (fun (b, ok) ->
                     Obs.Json.Obj
                       [
                         ("deleted", pid_set_json b);
                         ("intersects", Obs.Json.Bool ok);
                       ])
                   l) );
          ])
    @ [
        ( "stats",
          Obs.Json.Obj
            [
              ("explored", Obs.Json.Int a.search.Fbqs.Enum.explored);
              ("pruned", Obs.Json.Int a.search.Fbqs.Enum.pruned);
              ("found", Obs.Json.Int a.search.Fbqs.Enum.found);
            ] );
      ]
    @ Option.to_list
        (Option.map
           (fun m -> ("metrics", Obs.Metrics.to_json m))
           a.registry)
  in
  Obs.Json.Obj fields
