(* serve: the real daemon, `stellar-cup serve --socket PATH --jobs 1`,
   with STELLAR_CUP_JOBS and STELLAR_CUP_CACHE_CAPACITY removed from
   its environment, driven by one closed-loop connection: the client
   waits for each reply before sending again, as NDJSON clients do.
   With a single connection the daemon, the client and the host
   readings take turns, so run.py can keep them all on one vCPU.

   The connection replays a seeded stream of three classes:
   - hit (78%): a repeat of one of its last four run requests,
     answered from the response cache (tens of microseconds);
   - run (18%): a fresh-seed run on fig2 or a small random graph
     (10-40 ms);
   - analyze (4%): a fresh cap on one of eight FBAS files, which stay
     in the daemon's 8-entry file cache (120-300 ms).
   p50 falls inside the hit class and p90 inside the run class, at
   least six points from a class boundary. This is the only workload
   through Serve.Daemon, Obs.Json request decoding and the response,
   file and compiled-handle caches when they hit.

   Repeats target requests at most four runs back and the 64-entry
   response cache is never under enough pressure to evict them, so the
   response and file cache counters are the same in every run; the run
   checks them. *)

type cls = Hit | Run | Analyze

let cls_name = function Hit -> "hit" | Run -> "run" | Analyze -> "analyze"

type req = {
  id : int;
  cls : cls;
  line : string;
  original : int;  (** for a hit, the id of the request it repeats *)
  file : int;  (** for an analyze, its file index *)
  cap : int;
}

let files = 8

let file_path dir k = Filename.concat dir (Printf.sprintf "serve-%d.fbas" k)

let analysis_opts cap =
  { Serve.Api.default_analysis_options with cap; metrics = true }

let analyze_line ~dir ~id ~file ~cap =
  Printf.sprintf
    {|{"id":%d,"verb":"analyze","file":"%s","cap":%d,"metrics":true}|} id
    (file_path dir file) cap

let with_id id body = Printf.sprintf {|{"id":%d,%s|} id body

(* Every block of 50 requests holds exactly 39 hits, 9 runs and 2
   analyzes: a run (so that a hit always has a run to repeat), then
   the other 49 in a seeded order. The class shares, and with them the
   percentiles' classes, do not vary with the seed. *)
let block rng =
  let a =
    Array.of_list
      (List.init 39 (fun _ -> Hit)
      @ List.init 8 (fun _ -> Run)
      @ [ Analyze; Analyze ])
  in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Run :: Array.to_list a

(* The request stream of [m] requests, from its own seeded
   generator; runs alternate between fig2 and a small random graph. *)
let stream ~seed ~dir m =
  let rng = Random.State.make [| seed; 0x5e7e |] in
  let base = Common.derive ~seed ~stream:6 0 in
  let recent = ref [] and runs = ref 0 and analyzes = ref 0 in
  let classes = List.concat (List.init ((m + 49) / 50) (fun _ -> block rng)) in
  List.filteri (fun j _ -> j < m) classes
  |> List.mapi (fun j cls ->
         let id = 1_000_000 + j in
         match cls with
         | Hit ->
             let original, body =
               List.nth !recent (Random.State.int rng (List.length !recent))
             in
             { id; cls; line = with_id id body; original; file = -1; cap = 0 }
         | Run ->
             let graph =
               if !runs mod 2 = 0 then {|"graph":"fig2"|}
               else {|"graph":"random","sink_size":5,"non_sink":4,"f":1|}
             in
             incr runs;
             let body =
               Printf.sprintf {|"verb":"run",%s,"seed":%d}|} graph (base + j)
             in
             recent := List.filteri (fun i _ -> i < 4) ((id, body) :: !recent);
             let line = with_id id body in
             { id; cls; line; original = -1; file = -1; cap = 0 }
         | Analyze ->
             let file = !analyzes mod files in
             let cap = 1 + (!analyzes / files) in
             incr analyzes;
             let line = analyze_line ~dir ~id ~file ~cap in
             { id; cls; line; original = -1; file; cap })

let warmups ~dir =
  List.init files (fun file ->
      analyze_line ~dir ~id:(1_000_000 - 1 - file) ~file ~cap:0)

(* ---- the socket client ------------------------------------------------- *)

type conn = { fd : Unix.file_descr; pending : Buffer.t }

let rec write_all fd s off =
  if off < String.length s then
    write_all fd s (off + Unix.write_substring fd s off (String.length s - off))

let send conn line = write_all conn.fd (line ^ "\n") 0

(* Appends what [conn] has to read; returns the complete lines. *)
let receive conn =
  let chunk = Bytes.create 65536 in
  let n = Unix.read conn.fd chunk 0 (Bytes.length chunk) in
  if n = 0 then failwith "daemon closed the connection";
  Buffer.add_subbytes conn.pending chunk 0 n;
  let s = Buffer.contents conn.pending in
  match String.rindex_opt s '\n' with
  | None -> []
  | Some last ->
      Buffer.clear conn.pending;
      Buffer.add_string conn.pending
        (String.sub s (last + 1) (String.length s - last - 1));
      String.split_on_char '\n' (String.sub s 0 last)

let ask conn line =
  send conn line;
  let rec wait () = match receive conn with [] -> wait () | l :: _ -> l in
  wait ()

let rec connect path ~deadline =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> { fd; pending = Buffer.create 4096 }
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
    when Span.now () < deadline ->
      Unix.close fd;
      Unix.sleepf 0.005;
      connect path ~deadline

type daemon = { pid : int; conn : conn }

let spawn ~cli ~dir =
  let sock = Filename.concat dir "daemon.sock" in
  let env =
    Unix.environment () |> Array.to_list
    |> List.filter (fun kv ->
           not
             (String.starts_with ~prefix:(Simkit.Exec.jobs_env_var ^ "=") kv
             || String.starts_with ~prefix:"STELLAR_CUP_CACHE_CAPACITY=" kv))
    |> Array.of_list
  in
  let log_path = Filename.concat dir "daemon.log" in
  let log = Unix.openfile log_path Unix.[ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let argv = [| cli; "serve"; "--socket"; sock; "--jobs"; "1" |] in
  let pid = Unix.create_process_env cli argv env Unix.stdin log log in
  Unix.close log;
  let deadline = Span.now () +. 30. in
  match connect sock ~deadline with
  | conn -> { pid; conn }
  | exception e ->
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      raise e

let close d =
  (try Unix.close d.conn.fd with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] d.pid)

let stop d =
  ignore (ask d.conn {|{"id":0,"verb":"shutdown"}|});
  close d

let kill d =
  (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
  close d

(* Host readings are taken between requests, at most this often. *)
let reading_interval_s = 0.1

(* Sends the stream's requests one at a time; returns each reply, its
   round trip, the host reading before it, and the timed wall time. *)
let drive ~host d stream =
  let stream = Array.of_list stream in
  let n = Array.length stream in
  let replies = Array.make n "" and rtts = Array.make n 0. in
  let marks = Array.make n 0 in
  let w = Host.window host in
  let last = ref neg_infinity and k = ref 0 in
  Array.iteri
    (fun j q ->
      if Span.now () -. !last >= reading_interval_s then begin
        k := Host.read host;
        last := Span.now ()
      end;
      marks.(j) <- !k;
      let t0 = Span.now () in
      replies.(j) <- ask d.conn q.line;
      rtts.(j) <- (Span.now () -. t0) *. 1000.)
    stream;
  ignore (Host.read host);
  (replies, rtts, Array.to_list marks, Host.elapsed host w)

(* ---- checks -------------------------------------------------------------- *)

let response_prefix id =
  Printf.sprintf
    {|{"schema":"stellar-cup/report","version":1,"kind":"response","id":%d,|}
    id

let reid line ~from ~to_ =
  let p = response_prefix from in
  let n = String.length p in
  if String.starts_with ~prefix:p line then
    Some (response_prefix to_ ^ String.sub line n (String.length line - n))
  else None

let contains s sub =
  let n = String.length sub in
  let rec at i =
    i + n <= String.length s
    && (String.equal (String.sub s i n) sub || at (i + 1))
  in
  at 0

let ok_reply line = contains line {|"ok":true,"payload":|}
let consensus = {|"all_decided":true,"agreement":true,"validity":true|}

(* The analysis each file's analyze requests must render, whatever
   their cap. *)
let analyses ~dir =
  Array.init files (fun k ->
      match Fbqs.Fbas_io.of_file (file_path dir k) with
      | Ok sys -> Serve.Api.analyze (analysis_opts 0) sys
      | Error e -> failwith e)

let expected_analysis analyses r =
  Obs.Json.to_string
    (Core.Report.envelope ~kind:"response"
       ~meta:
         [
           ("id", Obs.Json.Int r.id);
           ("verb", Obs.Json.String "analyze");
           ("ok", Obs.Json.Bool true);
         ]
       (Serve.Api.analysis_payload (analysis_opts r.cap) analyses.(r.file)))

let check ~analyses ~by_id r line =
  if not (String.starts_with ~prefix:(response_prefix r.id) line) then
    Error "reply is not this request's response envelope"
  else if not (ok_reply line) then Error "reply is not ok"
  else
    match r.cls with
    | Run ->
        if contains line consensus then Ok ()
        else Error "run did not reach consensus"
    | Hit ->
        if
          Option.equal String.equal
            (reid (Hashtbl.find by_id r.original) ~from:r.original ~to_:r.id)
            (Some line)
        then Ok ()
        else Error "cached reply differs from the original"
    | Analyze ->
        if String.equal line (expected_analysis analyses r) then Ok ()
        else Error "analyze payload differs from Serve.Api.analysis_payload"

(* A field of one named cache in a [stats] reply (-1 if absent). *)
let cache_field line name k =
  match Obs.Json.of_string line with
  | Ok j -> (
      match Common.json_at [ "payload"; "caches"; name; k ] j with
      | Some (Obs.Json.Int n) -> n
      | _ -> -1)
  | Error _ -> -1

let cache_stats line name =
  ( cache_field line name "hits",
    cache_field line name "misses",
    cache_field line name "evictions" )

type pass = {
  setup : float * float;  (** set-up's wall time and host reading *)
  replies : string array;
  rtts : float array;
  marks : int list;
  p_wall_s : float;
  p_rss_mb : float;
  stats : string;
}

(* One daemon's life: spawn, ping, warm the file cache, drive the
   stream, read its stats and peak memory, shut it down. *)
let pass ~host ~setup_only ~cli ~dir ~timer ~tally stream =
  let d = spawn ~cli ~dir in
  let live () =
    let pong = ask d.conn {|{"id":0,"verb":"ping"}|} in
    Common.invariant tally (contains pong {|"pong":true|}) "setup: ping failed";
    List.iter
      (fun l ->
        Common.invariant tally
          (contains (ask d.conn l) {|"ok":true|})
          "setup: warm-up analyze failed")
      (warmups ~dir);
    let setup = Common.end_setup ~setup_only ~host timer tally in
    let replies, rtts, marks, p_wall_s = drive ~host d stream in
    let stats = ask d.conn {|{"id":1,"verb":"stats"}|} in
    let p_rss_mb = Common.peak_rss_mb (string_of_int d.pid) in
    { setup; replies; rtts; marks; p_wall_s; p_rss_mb; stats }
  in
  match live () with
  | p ->
      stop d;
      p
  | exception e ->
      kill d;
      raise e

(* A counter of the metrics registry an analyze reply carries. *)
let counter_in line name =
  match Obs.Json.of_string line with
  | Ok j -> (
      match Common.json_at [ "payload"; "metrics"; "metrics" ] j with
      | Some (Obs.Json.List l) ->
          List.fold_left
            (fun acc e ->
              match
                (Common.json_at [ "name" ] e, Common.json_at [ "value" ] e)
              with
              | Some (Obs.Json.String n), Some (Obs.Json.Int v)
                when String.equal n name ->
                  acc + v
              | _ -> acc)
            0 l
      | _ -> 0)
  | Error _ -> 0

(* The same stream, in-process on a fresh daemon: the daemon's own
   time per class, Obs.Json decoding, and exact cache and Enum
   counts. *)
let replay ~dir ~tally stream socket_replies =
  let d = Serve.Daemon.create () in
  List.iter (fun l -> ignore (Serve.Daemon.handle_line d l)) (warmups ~dir);
  let r = Span.create () and caches = Common.caches () in
  let enum = [| 0; 0; 0 |] in
  List.iter
    (fun q ->
      let span name f = Span.record r ~op:q.id name f in
      let decode () = ignore (Obs.Json.of_string q.line) in
      let handle () = Serve.Daemon.handle_line d q.line in
      let out =
        Common.counting caches (fun () ->
            span "op" (fun () ->
                span "json.decode" decode;
                span ("handle." ^ cls_name q.cls) handle))
      in
      let line = match out with [ l ] -> l | _ -> "" in
      Common.invariant tally
        (String.equal line (Hashtbl.find socket_replies q.id))
        (Printf.sprintf "request %d: replay differs from the socket" q.id);
      if q.cls = Analyze then
        List.iteri
          (fun j name -> enum.(j) <- enum.(j) + counter_in line name)
          [
            "fbqs_enum_explored";
            "fbqs_enum_pruned";
            "fbqs_enum_quorums_found";
          ])
    stream;
  let stats =
    match Serve.Daemon.handle_line d {|{"id":1,"verb":"stats"}|} with
    | [ l ] -> l
    | _ -> ""
  in
  (Span.spans r, caches, enum, stats)

let run ~host ~cli ~seed ~ops ~trace ~setup_only ~dir =
  let tally = Common.tally () in
  let timer = Common.start_setup host in
  Array.iteri
    (fun k s ->
      Fbqs.Fbas_io.to_file (file_path dir k)
        (Fbqs.Topology.stellarbeat_like ~seed:s ()))
    (Array.init files (Common.derive ~seed ~stream:8));
  let all = stream ~seed ~dir ops in
  let n_ops = List.length all in
  let of_cls cls = List.filter (fun q -> q.cls = cls) all in
  let count cls = List.length (of_cls cls) in
  let p = pass ~host ~setup_only ~cli ~dir ~timer ~tally all in
  let analyses = analyses ~dir in
  (* Every reply and round trip by request id; each reply is checked
     and counted against operations attempted. *)
  let by_id = Hashtbl.create n_ops and rtt_of = Hashtbl.create n_ops in
  List.iteri
    (fun j q ->
      Hashtbl.replace by_id q.id p.replies.(j);
      Hashtbl.replace rtt_of q.id p.rtts.(j))
    all;
  List.iter
    (fun q ->
      Common.op_result tally ~op:q.id
        (check ~analyses ~by_id q (Hashtbl.find by_id q.id)))
    all;
  let misses = files + count Run + count Analyze in
  let capacity = cache_field p.stats "serve_responses" "capacity" in
  Common.invariant tally
    (cache_stats p.stats "serve_responses"
    = (count Hit, misses, max 0 (misses - capacity)))
    "daemon stats: response cache counters differ from the streams'";
  Common.invariant tally
    (cache_stats p.stats "serve_files" = (count Analyze, files, 0))
    "daemon stats: file cache counters differ from the streams'";
  let times, counts, spans =
    if not trace then ([], [], [])
    else begin
      (* Round trips come from the timed socket pass itself; the
         daemon's own time, decoding and handle-cache counts from an
         in-process replay of the same stream. *)
      let spans, caches, enum, rstats = replay ~dir ~tally all by_id in
      Common.invariant tally
        (cache_stats rstats "serve_responses"
        = cache_stats p.stats "serve_responses")
        "replay's response cache counters differ from the daemon's";
      let selfs = Span.self_ms spans in
      let ids qs = List.map (fun q -> q.id) qs in
      let med name qs = Span.median_self_ms ~ops:(ids qs) name selfs in
      let rtt cls =
        Span.median (List.map (Hashtbl.find rtt_of) (ids (of_cls cls)))
      in
      let handle cls = med ("handle." ^ cls_name cls) (of_cls cls) in
      let per_op n = float_of_int n /. float_of_int n_ops in
      let hits, misses, evictions = cache_stats p.stats "serve_responses" in
      let fhits, fmisses, _ = cache_stats p.stats "serve_files" in
      let replies = Array.to_list p.replies in
      let errors = List.length (List.filter (Fun.negate ok_reply) replies) in
      let explored = per_op enum.(0) and found = per_op enum.(2) in
      let times =
        [
          ("daemon.rtt_hit_ms", rtt Hit);
          ("daemon.rtt_run_ms", rtt Run);
          ("daemon.rtt_analyze_ms", rtt Analyze);
          ("daemon.handle_hit_ms", handle Hit);
          ("daemon.handle_run_ms", handle Run);
          ("daemon.handle_analyze_ms", handle Analyze);
          ("daemon.transport_ms", rtt Hit -. handle Hit);
          ("json.decode_ms", med "json.decode" all);
          ("untracked_ms", Span.median_untracked_ms ~ops:(ids all) selfs);
          (* No instrumentation runs on the socket path. *)
          ("trace_overhead_pct", 0.);
        ]
      in
      let counts =
        [
          ("daemon.errors", per_op errors);
          ("cache.response_hits", per_op hits);
          ("cache.response_misses", per_op misses);
          ("cache.response_evictions", per_op evictions);
          ( "cache.response_hit_ratio",
            Common.ratio (float_of_int hits) (float_of_int (hits + misses)) );
          ("cache.file_hits", per_op fhits);
          ("cache.file_misses", per_op fmisses);
          ("enum.explored", explored);
          ("enum.pruned", per_op enum.(1));
          ("enum.found", found);
          ("enum.found_per_explored", Common.ratio found explored);
        ]
        @ Common.cache_counts caches ~ops:n_ops
      in
      (times, counts, spans)
    end
  in
  let setup_s, setup_reference_ms = p.setup in
  {
    Common.setup_s;
    setup_reference_ms;
    latencies_ms = Array.to_list p.rtts;
    reference_ms = Host.around host p.marks;
    wall_s = p.p_wall_s;
    peak_rss_mb = p.p_rss_mb;
    tally;
    times;
    counts;
    spans;
  }
