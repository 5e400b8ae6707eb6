(* The analysis service daemon.

   A request loop reading newline-delimited JSON requests and writing
   newline-delimited {!Core.Report} envelopes — over stdin/stdout for
   pipelines (strictly sequential, so golden replays stay
   byte-stable), or over a Unix domain socket where up to
   [max_clients] connections are served concurrently off the shared
   {!Simkit.Exec} pool. Determinism is the contract: per connection,
   the response stream is a pure function of the request stream,
   except for the [stats] verb, which intentionally reports the
   accumulated cache and pool counters (warm versus cold runs differ
   exactly there). Shared daemon state (request/client counters, the
   caches) moves under {!Simkit.Exec.protect}, the one sanctioned
   mutual-exclusion seam outside lib/sim.

   The daemon's two caches are the only caches in the process:
   - a file cache (path -> compiled system), so a repeated [analyze]
     of the same file skips the parse and the compile; the parse and
     its handle are kept and evicted together, and each analysis
     keeps nothing of the handle once it answers;
   - a response cache (canonical request, minus id -> payload and
     trace) that answers byte-identical repeats without re-running
     the engine.
   Every operation on either runs under {!Simkit.Exec.protect}.

   Byzantine fault tolerance of the service itself is out of scope:
   the daemon trusts its local client, exactly like the CLI trusts
   its arguments. No request ends it, though: a line is read up to
   [max_line_bytes], the JSON reader bounds its nesting, and any
   exception a request raises becomes that request's error
   envelope. *)

module J = Obs.Json

type cached = {
  c_verb : string;
  c_ok : bool;
  c_payload : J.t;
  c_trace : J.t list;
}

type t = {
  files : (string, Fbqs.Quorum.Compiled.t) Core.Cache.t;
  responses : (string, cached) Core.Cache.t;
  jobs : int;  (* default Enum parallelism for [analyze] *)
  mutable requests : int;
  mutable stopping : bool;
  mutable active_clients : int;  (* socket connections being served *)
  mutable clients_served : int;  (* socket connections completed *)
}

let create ?(jobs = 1) () =
  {
    files =
      Core.Cache.create ~equal:String.equal ~name:"serve_files" ~capacity:8
        ();
    responses =
      Core.Cache.create ~equal:String.equal ~name:"serve_responses"
        ~capacity:64 ();
    jobs = max 1 jobs;
    requests = 0;
    stopping = false;
    active_clients = 0;
    clients_served = 0;
  }

(* ---- request decoding ------------------------------------------------- *)

exception Bad_request of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad_request s)) fmt

let field fields name = List.assoc_opt name fields

let int_field fields name ~default =
  match field fields name with
  | None -> default
  | Some (J.Int n) -> n
  | Some _ -> bad "field %S must be an integer" name

let opt_int_field fields name =
  match field fields name with
  | None | Some J.Null -> None
  | Some (J.Int n) -> Some n
  | Some _ -> bad "field %S must be an integer" name

let bool_field fields name ~default =
  match field fields name with
  | None -> default
  | Some (J.Bool b) -> b
  | Some _ -> bad "field %S must be a boolean" name

let string_field fields name ~default =
  match field fields name with
  | None -> default
  | Some (J.String s) -> s
  | Some _ -> bad "field %S must be a string" name

let req_string_field fields name =
  match field fields name with
  | Some (J.String s) -> s
  | Some _ -> bad "field %S must be a string" name
  | None -> bad "missing required field %S" name

let int_list = function
  | J.List l ->
      List.map
        (function J.Int n -> n | _ -> bad "expected a list of integers")
        l
  | _ -> bad "expected a list of integers"

let int_list_field fields name ~default =
  match field fields name with None -> default | Some j -> int_list j

let int_list_list_field fields name ~default =
  match field fields name with
  | None -> default
  | Some (J.List l) -> List.map int_list l
  | Some _ -> bad "field %S must be a list of integer lists" name

(* ---- verbs ------------------------------------------------------------ *)

let ping_payload = J.Obj [ ("pong", J.Bool true) ]

let version_payload =
  J.Obj
    [
      ("name", J.String "stellar-cup");
      ("version", J.String "1.0.0");
      ("schema", J.String Core.Report.schema);
      ("report_version", J.Int Core.Report.version);
      ( "verbs",
        J.List
          (List.map
             (fun v -> J.String v)
             [ "ping"; "version"; "analyze"; "run"; "stats"; "shutdown" ]) );
    ]

let stats_payload t =
  let cache c =
    ( Core.Cache.name c,
      Core.Cache.stats_to_json
        (Simkit.Exec.protect (fun () -> Core.Cache.stats c)) )
  in
  J.Obj
    [
      ("requests", J.Int t.requests);
      ( "pool",
        J.Obj
          [
            ("workers", J.Int (Simkit.Exec.Pool.size ()));
            ("peak_workers", J.Int (Simkit.Exec.Pool.peak ()));
            ("batches", J.Int (Simkit.Exec.Pool.batches ()));
            ("active_clients", J.Int t.active_clients);
            ("clients_served", J.Int t.clients_served);
          ] );
      ("caches", J.Obj [ cache t.files; cache t.responses ]);
    ]

(* The lock is held through a miss's parse and compile, which happen
   once per file. *)
let compiled_file t path =
  Simkit.Exec.protect (fun () ->
      Core.Cache.find_or_add t.files path (fun () ->
          match Fbqs.Fbas_io.of_file path with
          | Ok sys -> Fbqs.Quorum.Compiled.compile sys
          | Error e -> bad "cannot read %s" e))

let analyze_verb t fields =
  let path = req_string_field fields "file" in
  let d = Api.default_analysis_options in
  let opts =
    {
      Api.despite = int_list_list_field fields "despite" ~default:d.despite;
      blocking = bool_field fields "blocking" ~default:d.blocking;
      splitting = bool_field fields "splitting" ~default:d.splitting;
      max_size = opt_int_field fields "max_size";
      cap = int_field fields "cap" ~default:d.cap;
      metrics = bool_field fields "metrics" ~default:d.metrics;
      (* A request may lower the daemon's parallelism, never raise it:
         the daemon's own [jobs] bounds the workers any request can
         start (on the fork backend they stay parked afterwards).
         Payloads are jobs-invariant, so requests differing only here
         cache under different keys yet answer identically. *)
      jobs = min t.jobs (max 1 (int_field fields "jobs" ~default:t.jobs));
    }
  in
  let c = compiled_file t path in
  let payload = Api.analysis_payload opts (Api.analyze_compiled opts c) in
  (payload, [])

let run_verb fields =
  let g = Api.default_graph_spec in
  let spec =
    {
      Api.kind = string_field fields "graph" ~default:g.kind;
      seed = int_field fields "seed" ~default:g.seed;
      sink_size = int_field fields "sink_size" ~default:g.sink_size;
      non_sink = int_field fields "non_sink" ~default:g.non_sink;
      f = int_field fields "f" ~default:g.f;
    }
  in
  let pipeline = string_field fields "pipeline" ~default:Api.default_pipeline in
  let faulty = Graphkit.Pid.Set.of_list (int_list_field fields "faulty" ~default:[]) in
  let want_metrics = bool_field fields "metrics" ~default:false in
  let want_trace = bool_field fields "trace" ~default:false in
  let d = Simkit.Run_config.default in
  let metrics = if want_metrics then Some (Obs.Metrics.create ()) else None in
  let trace, recorded =
    if want_trace then
      let sink, events = Obs.Trace.recording () in
      (Some sink, Some events)
    else (None, None)
  in
  let cfg =
    {
      Simkit.Run_config.seed = spec.Api.seed;
      gst = int_field fields "gst" ~default:d.gst;
      delta = int_field fields "delta" ~default:d.delta;
      max_time = int_field fields "max_time" ~default:d.max_time;
      delay = None;
      metrics;
      trace;
    }
  in
  let graph = Api.build_graph spec in
  let verdict =
    Stellar_cup.Pipeline.run_stack
      (Stellar_cup.Pipeline.stack_of_string pipeline)
      ~cfg ~graph ~f:spec.Api.f ~faulty
      ~initial_value_of:(fun i -> Scp.Value.of_ints [ i ])
  in
  let extra =
    Option.to_list
      (Option.map (fun m -> ("metrics", Obs.Metrics.to_json m)) metrics)
  in
  let payload =
    Api.run_payload ~pipeline ~seed:spec.Api.seed ~extra verdict
  in
  let trace_events =
    match recorded with
    | None -> []
    | Some events -> List.map Obs.Trace.event_to_json (events ())
  in
  (payload, trace_events)

(* ---- envelopes -------------------------------------------------------- *)

let response_envelope ~id ~verb ~ok payload =
  Core.Report.envelope ~kind:"response"
    ~meta:[ ("id", id); ("verb", verb); ("ok", J.Bool ok) ]
    payload

let trace_envelope ~id event =
  Core.Report.envelope ~kind:"trace" ~meta:[ ("id", id) ] event

let error_lines ~id ~verb msg =
  [
    J.to_string
      (response_envelope ~id ~verb ~ok:false
         (J.Obj [ ("error", J.String msg) ]));
  ]

let ok_lines ~id ~verb ~trace payload =
  List.map (fun e -> J.to_string (trace_envelope ~id e)) trace
  @ [ J.to_string (response_envelope ~id ~verb:(J.String verb) ~ok:true payload) ]

(* The message of an exception no verb expects: [Not_found],
   [Stack_overflow], [Out_of_memory] and the like end the request,
   never the daemon. *)
let internal_error e = "internal error: " ^ Printexc.to_string e

(* The response-cache key: the request object with its [id] field
   removed, re-serialized. Field order is preserved, so two requests
   are "the same" when they are the same bytes modulo id — exactly the
   replay the determinism gate performs. *)
let cache_key fields =
  J.to_string (J.Obj (List.filter (fun (k, _) -> k <> "id") fields))

let dispatch t fields =
  let id = Option.value ~default:J.Null (field fields "id") in
  Simkit.Exec.protect (fun () -> t.requests <- t.requests + 1);
  match field fields "verb" with
  | Some (J.String verb) -> (
      (* Only engine work is cached; failures are not (a missing file
         is an input condition, not a property of the request), so a
         fixed request replays byte-identically while the environment
         holds still — exactly the determinism the serve gate checks. *)
      (* The lookup and the insert each take the lock; the compute
         between them runs without it, since a run or an analysis may
         call [Simkit.Exec.map]. *)
      let cacheable compute =
        let key = cache_key fields in
        let c =
          match
            Simkit.Exec.protect (fun () -> Core.Cache.find_opt t.responses key)
          with
          | Some c -> c
          | None ->
              let payload, trace = compute () in
              let c =
                { c_verb = verb; c_ok = true; c_payload = payload;
                  c_trace = trace }
              in
              Simkit.Exec.protect (fun () -> Core.Cache.add t.responses key c);
              c
        in
        ok_lines ~id ~verb ~trace:c.c_trace c.c_payload
      in
      try
        match verb with
        | "ping" -> ok_lines ~id ~verb ~trace:[] ping_payload
        | "version" -> ok_lines ~id ~verb ~trace:[] version_payload
        | "stats" -> ok_lines ~id ~verb ~trace:[] (stats_payload t)
        | "shutdown" ->
            Simkit.Exec.protect (fun () -> t.stopping <- true);
            ok_lines ~id ~verb ~trace:[] (J.Obj [ ("stopping", J.Bool true) ])
        | "analyze" -> cacheable (fun () -> analyze_verb t fields)
        | "run" -> cacheable (fun () -> run_verb fields)
        | other ->
            error_lines ~id ~verb:(J.String other)
              (Printf.sprintf "unknown verb %S" other)
      with
      | Bad_request msg | Failure msg | Sys_error msg | Invalid_argument msg ->
        error_lines ~id ~verb:(J.String verb) msg
      | e -> error_lines ~id ~verb:(J.String verb) (internal_error e))
  | Some _ -> error_lines ~id ~verb:J.Null "field \"verb\" must be a string"
  | None -> error_lines ~id ~verb:J.Null "missing required field \"verb\""

(* A request that never reaches [dispatch]: counted, and answered with
   one error envelope that has no id. *)
let unparsed t msg =
  Simkit.Exec.protect (fun () -> t.requests <- t.requests + 1);
  error_lines ~id:J.Null ~verb:J.Null msg

let handle_line t line =
  if String.trim line = "" then []
  else
    match J.of_string line with
    | Ok (J.Obj fields) -> dispatch t fields
    | Ok _ -> unparsed t "request must be a JSON object"
    | Error e -> unparsed t ("parse error: " ^ e)
    | exception e -> unparsed t (internal_error e)

let stopping t = t.stopping

(* ---- transports ------------------------------------------------------- *)

let max_line_bytes = 1 lsl 20

type line = Line of string | Too_long | End

(* A request reader over a channel. [input] hands over what the
   channel holds in one call, so a line costs a few calls rather than
   one per byte; [chunk.[pos .. len - 1]] is read but not yet used. *)
type reader = {
  ic : in_channel;
  chunk : Bytes.t;
  mutable pos : int;
  mutable len : int;
}

let reader ic = { ic; chunk = Bytes.create 4096; pos = 0; len = 0 }

(* The next request line, as [input_line] reads it. A line longer than
   [max_line_bytes] is read to its newline but not kept, so a client
   that never sends a newline costs the daemon no memory. *)
let read_line r =
  let line = Buffer.create 256 in
  let rec go over =
    if r.pos = r.len then begin
      r.pos <- 0;
      r.len <- input r.ic r.chunk 0 (Bytes.length r.chunk)
    end;
    if r.len = 0 then
      if over then Too_long
      else if Buffer.length line = 0 then End
      else Line (Buffer.contents line)
    else begin
      let start = r.pos in
      while r.pos < r.len && Bytes.get r.chunk r.pos <> '\n' do
        r.pos <- r.pos + 1
      done;
      let n = r.pos - start in
      let over = over || Buffer.length line + n > max_line_bytes in
      if not over then Buffer.add_subbytes line r.chunk start n;
      if r.pos = r.len then go over
      else begin
        r.pos <- r.pos + 1;
        if over then Too_long else Line (Buffer.contents line)
      end
    end
  in
  go false

(* Reads requests until EOF or [shutdown], writing and flushing the
   response lines per request: the loop of both transports. *)
let serve_channels t ic oc =
  let r = reader ic in
  let rec loop () =
    match read_line r with
    | End -> ()
    | Line line -> respond (handle_line t line)
    | Too_long ->
        respond
          (unparsed t
             (Printf.sprintf "request line longer than %d bytes"
                max_line_bytes))
  and respond lines =
    List.iter
      (fun l ->
        output_string oc l;
        output_char oc '\n')
      lines;
    flush oc;
    if not t.stopping then loop ()
  in
  loop ()

let serve_stdio t = serve_channels t stdin stdout

let default_max_clients = 4

let serve_unix ?(max_clients = default_max_clients) t ~path =
  let max_clients = max 1 max_clients in
  (* A client that hangs up before reading its reply must end only its
     own connection: with SIGPIPE ignored the failed write raises
     [Sys_error], which the connection handler catches. *)
  if not Sys.win32 then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  if Sys.file_exists path then Sys.remove path;
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind sock (Unix.ADDR_UNIX path);
  Unix.listen sock max_clients;
  (* Each accepted connection is handed to a detached executor task
     (a domain of its own on OCaml 5; run inline on 4.14, which
     degrades to the historical one-client-at-a-time loop). Requests
     from one connection are answered in order on that connection;
     concurrent connections share the caches and the worker pool. *)
  let tasks = ref [] in
  let reap ~wait =
    tasks :=
      List.filter
        (fun (task, finished) ->
          if wait || !finished then begin
            Simkit.Exec.join_task task;
            false
          end
          else true)
        !tasks
  in
  let handle client () =
    Fun.protect
      ~finally:(fun () ->
        Simkit.Exec.protect (fun () ->
            t.active_clients <- t.active_clients - 1;
            t.clients_served <- t.clients_served + 1))
      (fun () ->
        let ic = Unix.in_channel_of_descr client in
        let oc = Unix.out_channel_of_descr client in
        (try serve_channels t ic oc with Sys_error _ -> ());
        try Unix.close client with Unix.Unix_error _ -> ())
  in
  let rec accept_loop () =
    if not t.stopping then
      if not (Simkit.Exec.protect (fun () -> t.active_clients < max_clients))
      then begin
        reap ~wait:false;
        Unix.sleepf 0.02;
        accept_loop ()
      end
      else begin
        (* Wake periodically so a [shutdown] served on an existing
           connection stops the listener without a further connect. *)
        match Unix.select [ sock ] [] [] 0.2 with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
        | [], _, _ ->
            reap ~wait:false;
            accept_loop ()
        | _ ->
            let client, _ = Unix.accept sock in
            Simkit.Exec.protect (fun () ->
                t.active_clients <- t.active_clients + 1);
            let finished = ref false in
            let task =
              Simkit.Exec.spawn_task (fun () ->
                  Fun.protect
                    ~finally:(fun () -> finished := true)
                    (handle client))
            in
            tasks := (task, finished) :: !tasks;
            accept_loop ()
      end
  in
  Fun.protect
    ~finally:(fun () ->
      reap ~wait:true;
      (try Unix.close sock with Unix.Unix_error _ -> ());
      if Sys.file_exists path then Sys.remove path)
    accept_loop
