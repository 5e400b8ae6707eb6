(* The analysis daemon: protocol shape, determinism, the shared
   response cache and hostile input (DESIGN.md §14).

   These tests drive [Serve.Daemon.handle_line] in-process and check
   the daemon's own caches and the response bytes. *)

let fixture = "fixtures/live_network.fbas"

let req id verb extra =
  Printf.sprintf {|{"id": %d, "verb": %S%s}|} id verb
    (String.concat ""
       (List.map (fun (k, v) -> Printf.sprintf ", %S: %s" k v) extra))

let analyze id = req id "analyze" [ ("file", Printf.sprintf "%S" fixture) ]

(* ping, version, then the same analysis twice under different ids —
   the second analyze must come out of the response cache. *)
let session = [ req 1 "ping" []; req 2 "version" []; analyze 3; analyze 4 ]

let run_session d lines = List.concat_map (Serve.Daemon.handle_line d) lines

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  go 0

(* Replace the digits after every ["id":] with [_], so responses can be
   compared modulo the echoed request id. *)
let strip_ids s =
  let key = {|"id":|} in
  let klen = String.length key in
  let n = String.length s in
  let b = Buffer.create n in
  let i = ref 0 in
  while !i < n do
    if !i + klen <= n && String.sub s !i klen = key then begin
      Buffer.add_string b key;
      Buffer.add_char b '_';
      i := !i + klen;
      while !i < n && s.[!i] >= '0' && s.[!i] <= '9' do
        incr i
      done
    end
    else begin
      Buffer.add_char b s.[!i];
      incr i
    end
  done;
  Buffer.contents b

let test_blank_line_ignored () =
  let d = Serve.Daemon.create () in
  Alcotest.(check (list string)) "no output" [] (Serve.Daemon.handle_line d "");
  Alcotest.(check (list string)) "whitespace" []
    (Serve.Daemon.handle_line d "   ")

let test_garbage_is_an_error_response () =
  let d = Serve.Daemon.create () in
  match Serve.Daemon.handle_line d "not json at all" with
  | [ line ] ->
      Alcotest.(check bool) "not ok" true (contains ~affix:{|"ok":false|} line);
      Alcotest.(check bool) "an envelope" true
        (contains ~affix:Core.Report.schema line)
  | l -> Alcotest.failf "expected exactly one error line, got %d" (List.length l)

let test_unknown_verb_keeps_id () =
  let d = Serve.Daemon.create () in
  match Serve.Daemon.handle_line d {|{"id": 9, "verb": "frobnicate"}|} with
  | [ line ] ->
      Alcotest.(check bool) "id echoed" true (contains ~affix:{|"id":9|} line);
      Alcotest.(check bool) "not ok" true (contains ~affix:{|"ok":false|} line)
  | l -> Alcotest.failf "expected exactly one error line, got %d" (List.length l)

let test_ping () =
  let d = Serve.Daemon.create () in
  match Serve.Daemon.handle_line d (req 1 "ping" []) with
  | [ line ] ->
      List.iter
        (fun affix -> Alcotest.(check bool) affix true (contains ~affix line))
        [ {|"id":1|}; {|"verb":"ping"|}; {|"ok":true|}; {|"pong":true|} ]
  | l -> Alcotest.failf "expected exactly one line, got %d" (List.length l)

let test_shutdown_stops () =
  let d = Serve.Daemon.create () in
  Alcotest.(check bool) "running" false (Serve.Daemon.stopping d);
  ignore (Serve.Daemon.handle_line d (req 1 "shutdown" []));
  Alcotest.(check bool) "stopping" true (Serve.Daemon.stopping d)

let test_two_cold_daemons_agree () =
  (* The response stream is a pure function of the request stream: two
     fresh daemons serve byte-identical sessions. *)
  let a = run_session (Serve.Daemon.create ()) session in
  let b = run_session (Serve.Daemon.create ()) session in
  Alcotest.(check (list string)) "byte-identical sessions" a b

let test_warm_repeat_identical_and_cached () =
  (* Replaying the same session against a warm daemon yields the same
     bytes — repeats are served from the response cache, which the
     stats verb then confirms: the only verb whose answer depends on
     accumulated state is [stats] itself. *)
  let d = Serve.Daemon.create () in
  let cold = run_session d session in
  let warm = run_session d session in
  Alcotest.(check (list string)) "warm replay byte-identical" cold warm;
  match Serve.Daemon.handle_line d (req 99 "stats" []) with
  | [ line ] ->
      (* cold: analyze 3 misses, analyze 4 hits; warm: both hit *)
      Alcotest.(check bool) "response cache hit on repeats" true
        (contains ~affix:{|"serve_responses":{"hits":3,"misses":1|} line);
      (* the file is parsed once; response-cache hits never re-load it *)
      Alcotest.(check bool) "file parsed once" true
        (contains ~affix:{|"serve_files":{"hits":0,"misses":1|} line)
  | l -> Alcotest.failf "expected one stats line, got %d" (List.length l)

let test_stats_reports_pool () =
  (* The stats verb carries a pool object; a fresh stdio-style daemon
     has touched neither workers nor socket clients, so every counter
     is zero — which is exactly what the golden replay pins. *)
  Simkit.Exec.Pool.shutdown ();
  let d = Serve.Daemon.create () in
  match Serve.Daemon.handle_line d (req 1 "stats" []) with
  | [ line ] ->
      Alcotest.(check bool) "pool object present" true
        (contains ~affix:{|"pool":{"workers":0,|} line);
      Alcotest.(check bool) "socket counters present" true
        (contains ~affix:{|"active_clients":0,"clients_served":0|} line)
  | l -> Alcotest.failf "expected one stats line, got %d" (List.length l)

let test_oversized_splitting_is_an_error () =
  (* A 63-pid top tier is past the splitting sweep's 62-pid limit: the
     request gets an error envelope carrying the engine's message, and
     the daemon goes on to answer the next request. *)
  let path = Filename.temp_file "stellar_cup_wide" ".fbas" in
  let members = String.concat " " (List.init 63 string_of_int) in
  let oc = open_out path in
  for i = 0 to 62 do
    Printf.fprintf oc "%d threshold 63 of %s\n" i members
  done;
  close_out oc;
  let d = Serve.Daemon.create () in
  let split =
    req 1 "analyze" [ ("file", Printf.sprintf "%S" path); ("splitting", "true") ]
  in
  let answer = Serve.Daemon.handle_line d split in
  Sys.remove path;
  (match answer with
  | [ line ] ->
      Alcotest.(check bool) "not ok" true (contains ~affix:{|"ok":false|} line);
      Alcotest.(check bool) "carries the message" true
        (contains ~affix:"larger than 62" line)
  | l -> Alcotest.failf "expected one error line, got %d" (List.length l));
  match Serve.Daemon.handle_line d (req 2 "ping" []) with
  | [ line ] ->
      Alcotest.(check bool) "next request ok" true
        (contains ~affix:{|"ok":true|} line)
  | l -> Alcotest.failf "expected one ping line, got %d" (List.length l)

let test_negative_pid_is_an_error () =
  (* A file naming pid -1, or one just past the parsers' 2^20 bound, is
     refused with its line number, whether an [analyze] reads it as an
     FBAS or a [run] reads it as a graph; the daemon answers each with
     one error envelope and keeps serving. *)
  let d = Serve.Daemon.create () in
  List.iteri
    (fun i (verb, content) ->
      let path = Filename.temp_file "stellar_cup_bad_pid" ".txt" in
      let oc = open_out path in
      output_string oc content;
      close_out oc;
      let args =
        if verb = "analyze" then [ ("file", Printf.sprintf "%S" path) ]
        else [ ("graph", Printf.sprintf "%S" ("file:" ^ path)) ]
      in
      let answer = Serve.Daemon.handle_line d (req (2 * i) verb args) in
      Sys.remove path;
      (match answer with
      | [ line ] ->
          Alcotest.(check bool) (content ^ ": not ok") true
            (contains ~affix:{|"ok":false|} line);
          Alcotest.(check bool) (content ^ ": names the line") true
            (contains ~affix:"line 1" line)
      | l -> Alcotest.failf "expected one error line, got %d" (List.length l));
      match Serve.Daemon.handle_line d (req ((2 * i) + 1) "ping" []) with
      | [ line ] ->
          Alcotest.(check bool) "next request ok" true
            (contains ~affix:{|"ok":true|} line)
      | l -> Alcotest.failf "expected one ping line, got %d" (List.length l))
    [
      ("analyze", "0 threshold 1 of 0 -1\n");
      ("analyze", "0 threshold 1 of 0 1048576\n");
      ("run", "0: 1048576\n");
    ]

let test_empty_family_sink_is_an_error () =
  (* A family graph with no sink members is an input error: one error
     envelope, and the daemon serves the next request. *)
  let d = Serve.Daemon.create () in
  (match
     Serve.Daemon.handle_line d
       (req 1 "run"
          [ ("graph", {|"family"|}); ("sink_size", "0"); ("non_sink", "2") ])
   with
  | [ line ] ->
      Alcotest.(check bool) "not ok" true (contains ~affix:{|"ok":false|} line);
      Alcotest.(check bool) "names the cause" true
        (contains ~affix:"sink_size < 1" line)
  | l -> Alcotest.failf "expected one error line, got %d" (List.length l));
  match Serve.Daemon.handle_line d (req 2 "ping" []) with
  | [ line ] ->
      Alcotest.(check bool) "pong" true (contains ~affix:{|"pong":true|} line)
  | l -> Alcotest.failf "expected one ping line, got %d" (List.length l)

let test_request_jobs_clamped () =
  (* A request cannot raise the daemon's parallelism: at jobs 1, an
     analyze asking for 64 jobs answers what one asking for 1 does, and
     no parallel batch runs, so no worker is started. *)
  Simkit.Exec.Pool.shutdown ();
  let batches = Simkit.Exec.Pool.batches () in
  let d = Serve.Daemon.create ~jobs:1 () in
  let at jobs =
    req 1 "analyze"
      [ ("file", Printf.sprintf "%S" fixture); ("jobs", string_of_int jobs) ]
  in
  match
    (Serve.Daemon.handle_line d (at 64), Serve.Daemon.handle_line d (at 1))
  with
  | [ wide ], [ one ] ->
      Alcotest.(check bool) "ok" true (contains ~affix:{|"ok":true|} wide);
      Alcotest.(check string) "same payload as jobs 1" one wide;
      Alcotest.(check int) "no parallel batch" batches
        (Simkit.Exec.Pool.batches ());
      Alcotest.(check int) "no worker parked" 0 (Simkit.Exec.Pool.size ())
  | _ -> Alcotest.fail "expected one response line per analyze"

(* Parses the fixture, analyzes it with one despite set and returns a
   weak pointer to the parsed system, which nothing else here keeps. *)
let analyze_behind_weak_pointer () =
  let sys =
    match Fbqs.Fbas_io.of_file fixture with
    | Ok sys -> sys
    | Error e -> Alcotest.fail e
  in
  let w = Weak.create 1 in
  Weak.set w 0 (Some sys);
  let opts =
    { Serve.Api.default_analysis_options with despite = [ [ 0; 1; 2 ] ] }
  in
  ignore (Sys.opaque_identity (Serve.Api.analyze opts sys));
  w
[@@inline never]

let test_analyze_keeps_nothing () =
  (* An analysis owns its compiled system and its contraction graph:
     once it has answered, a full major collection frees the system. *)
  let w = analyze_behind_weak_pointer () in
  Gc.full_major ();
  Alcotest.(check bool) "system collected" false (Weak.check w 0)

(* ---- the concurrent socket transport ----------------------------------- *)

let socket_path () =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "stellar-cup-test-%d.sock" (Unix.getpid ()))

let connect path =
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect sock (Unix.ADDR_UNIX path);
  (sock, Unix.in_channel_of_descr sock, Unix.out_channel_of_descr sock)

let send oc line =
  output_string oc line;
  output_char oc '\n';
  flush oc

let wait_for_socket path =
  let rec go n =
    if Sys.file_exists path then ()
    else if n = 0 then Alcotest.fail "daemon socket never appeared"
    else begin
      Unix.sleepf 0.02;
      go (n - 1)
    end
  in
  go 250

let test_socket_concurrent_clients () =
  (* Two clients held open at once against one daemon: requests
     interleave across connections, yet each connection sees its own
     responses in its own request order, analyze payloads agree modulo
     the echoed id (the response cache is shared), and the stats verb
     observes both connections live. On runtimes without concurrent
     tasks [serve_unix] degrades to one client at a time, so the
     interleaved half only runs where tasks are real. *)
  if Simkit.Exec.concurrent_tasks then begin
    let path = socket_path () in
    let d = Serve.Daemon.create () in
    let server =
      Simkit.Exec.spawn_task (fun () ->
          Serve.Daemon.serve_unix ~max_clients:2 d ~path)
    in
    wait_for_socket path;
    let s1, ic1, oc1 = connect path in
    let s2, ic2, oc2 = connect path in
    (* Every answer is read before any check, so that a failed check
       cannot leave the daemon running. *)
    let r1, r2, a1, a2, r3, r4, stats, stopped =
      Fun.protect
        ~finally:(fun () ->
          (try Unix.close s1 with Unix.Unix_error _ -> ());
          (try Unix.close s2 with Unix.Unix_error _ -> ());
          Simkit.Exec.join_task server)
        (fun () ->
          (* interleaved pings *)
          send oc1 (req 1 "ping" []);
          send oc2 (req 21 "ping" []);
          let r1 = input_line ic1 in
          let r2 = input_line ic2 in
          (* the same analysis from both clients *)
          send oc1 (analyze 2);
          let a1 = input_line ic1 in
          send oc2 (analyze 22);
          let a2 = input_line ic2 in
          (* two requests down one pipe while the other stays open *)
          send oc1 (req 3 "ping" []);
          send oc1 (req 4 "version" []);
          let r3 = input_line ic1 in
          let r4 = input_line ic1 in
          (* both handlers have answered on their own connections, so
             both are live right now *)
          send oc2 (req 23 "stats" []);
          let stats = input_line ic2 in
          (* shutdown from one client stops the whole daemon *)
          send oc2 (req 24 "shutdown" []);
          let stopped = input_line ic2 in
          (r1, r2, a1, a2, r3, r4, stats, stopped))
    in
    Alcotest.(check bool) "c1 got its id" true (contains ~affix:{|"id":1|} r1);
    Alcotest.(check bool) "c2 got its id" true (contains ~affix:{|"id":21|} r2);
    (* byte-identical modulo id, the second served warm from the
       shared response cache *)
    Alcotest.(check string) "shared cache, same payload" (strip_ids a1)
      (strip_ids a2);
    (* per-connection ordering: request order *)
    Alcotest.(check bool) "first in, first out" true
      (contains ~affix:{|"id":3|} r3);
    Alcotest.(check bool) "second follows" true (contains ~affix:{|"id":4|} r4);
    Alcotest.(check bool) "two clients live" true
      (contains ~affix:{|"active_clients":2|} stats);
    Alcotest.(check bool) "shutdown acknowledged" true
      (contains ~affix:{|"ok":true|} stopped);
    Alcotest.(check bool) "daemon stopped" true (Serve.Daemon.stopping d);
    Alcotest.(check bool) "socket removed" false (Sys.file_exists path)
  end

let test_socket_session_matches_stdio () =
  (* One socket client replaying the canonical session gets exactly the
     bytes handle_line produces — the transport adds nothing. *)
  if Simkit.Exec.concurrent_tasks then begin
    let path = socket_path () in
    let d = Serve.Daemon.create () in
    let server =
      Simkit.Exec.spawn_task (fun () -> Serve.Daemon.serve_unix d ~path)
    in
    wait_for_socket path;
    let sock, ic, oc = connect path in
    let expected = run_session (Serve.Daemon.create ()) session in
    let got =
      List.concat_map
        (fun line ->
          send oc line;
          [ input_line ic ])
        session
    in
    send oc (req 99 "shutdown" []);
    ignore (input_line ic);
    (try Unix.close sock with Unix.Unix_error _ -> ());
    Simkit.Exec.join_task server;
    Alcotest.(check (list string)) "socket = stdio bytes" expected got
  end

let test_socket_dropped_client () =
  (* A client that hangs up before reading its reply ends only its own
     connection: the daemon's write fails on the closed socket, and a
     second connection is still answered once the first has ended. *)
  if Simkit.Exec.concurrent_tasks then begin
    let path = socket_path () in
    let d = Serve.Daemon.create () in
    let server =
      Simkit.Exec.spawn_task (fun () -> Serve.Daemon.serve_unix d ~path)
    in
    wait_for_socket path;
    (* A bare descriptor: a channel would keep it open past the close. *)
    let dropped = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect dropped (Unix.ADDR_UNIX path);
    let run = req 1 "run" [ ("graph", {|"fig2"|}) ] ^ "\n" in
    ignore (Unix.write_substring dropped run 0 (String.length run));
    Unix.close dropped;
    let sock, ic, oc = connect path in
    (* Every answer is read before any check, so that a failed check
       cannot leave the daemon running. *)
    let ended, pong =
      Fun.protect
        ~finally:(fun () ->
          (try Unix.close sock with Unix.Unix_error _ -> ());
          Simkit.Exec.join_task server)
        (fun () ->
          let rec until_dropped_ends n =
            send oc (req 2 "stats" []);
            if contains ~affix:{|"clients_served":1|} (input_line ic) then true
            else if n = 0 then false
            else begin
              Unix.sleepf 0.02;
              until_dropped_ends (n - 1)
            end
          in
          let ended = until_dropped_ends 250 in
          send oc (req 3 "ping" []);
          let pong = input_line ic in
          send oc (req 4 "shutdown" []);
          ignore (input_line ic);
          (ended, pong))
    in
    Alcotest.(check bool) "the dropped connection ended" true ended;
    Alcotest.(check bool) "second connection answered" true
      (contains ~affix:{|"pong":true|} pong);
    Alcotest.(check bool) "daemon stopped" true (Serve.Daemon.stopping d)
  end

let test_socket_oversized_line () =
  (* A line one byte past the cap is skipped to its newline and
     answered with one error naming the cap; the same connection's
     next request is served. *)
  if Simkit.Exec.concurrent_tasks then begin
    let path = socket_path () in
    let d = Serve.Daemon.create () in
    let server =
      Simkit.Exec.spawn_task (fun () -> Serve.Daemon.serve_unix d ~path)
    in
    wait_for_socket path;
    let sock, ic, oc = connect path in
    (* Every answer is read before any check, so that a failed check
       cannot leave the daemon running. *)
    let answer, pong =
      Fun.protect
        ~finally:(fun () ->
          (try Unix.close sock with Unix.Unix_error _ -> ());
          Simkit.Exec.join_task server)
        (fun () ->
          send oc (String.make (Serve.Daemon.max_line_bytes + 1) 'x');
          let answer = input_line ic in
          send oc (req 2 "ping" []);
          let pong = input_line ic in
          send oc (req 3 "shutdown" []);
          ignore (input_line ic);
          (answer, pong))
    in
    Alcotest.(check bool) "not ok" true (contains ~affix:{|"ok":false|} answer);
    Alcotest.(check bool) "names the cap" true
      (contains
         ~affix:(string_of_int Serve.Daemon.max_line_bytes ^ " bytes")
         answer);
    Alcotest.(check bool) "ping answered" true
      (contains ~affix:{|"pong":true|} pong);
    Alcotest.(check bool) "daemon stopped" true (Serve.Daemon.stopping d)
  end

let test_repeat_analyze_reuses_payload () =
  (* Identical analyze requests under different ids: the payloads are
     byte-identical; only the echoed id differs. *)
  let d = Serve.Daemon.create () in
  match
    (Serve.Daemon.handle_line d (analyze 3), Serve.Daemon.handle_line d (analyze 4))
  with
  | [ r3 ], [ r4 ] ->
      Alcotest.(check bool) "ids differ" true (r3 <> r4);
      Alcotest.(check string) "same modulo id" (strip_ids r3) (strip_ids r4)
  | _ -> Alcotest.fail "expected one response line per analyze"

let test_bftcup_run_streams_trace_and_metrics () =
  (* A BFT-CUP run honours the request's observability flags like the
     SCP stacks do: trace envelopes first, then a response whose
     metrics list is not empty. *)
  let d = Serve.Daemon.create () in
  let lines =
    Serve.Daemon.handle_line d
      (req 1 "run"
         [ ("pipeline", {|"bftcup"|}); ("metrics", "true"); ("trace", "true") ])
  in
  match List.rev lines with
  | response :: (_ :: _ as traces) -> (
      List.iter
        (fun l ->
          Alcotest.(check bool) "trace envelope" true
            (contains ~affix:{|"kind":"trace"|} l))
        traces;
      let member k = function
        | Obs.Json.Obj l -> List.assoc_opt k l
        | _ -> None
      in
      match Obs.Json.of_string response with
      | Ok j -> (
          match
            Option.bind
              (Option.bind (member "payload" j) (member "metrics"))
              (member "metrics")
          with
          | Some (Obs.Json.List (_ :: _)) -> ()
          | _ -> Alcotest.failf "no metrics in %s" response)
      | Error e -> Alcotest.fail e)
  | _ -> Alcotest.fail "expected trace lines before the response"

let suites =
  [
    ( "serve",
      [
        Alcotest.test_case "blank lines ignored" `Quick test_blank_line_ignored;
        Alcotest.test_case "garbage yields an error envelope" `Quick
          test_garbage_is_an_error_response;
        Alcotest.test_case "unknown verb keeps the id" `Quick
          test_unknown_verb_keeps_id;
        Alcotest.test_case "ping" `Quick test_ping;
        Alcotest.test_case "shutdown stops the loop" `Quick test_shutdown_stops;
        Alcotest.test_case "cold daemons byte-identical" `Quick
          test_two_cold_daemons_agree;
        Alcotest.test_case "warm replay identical, served from cache" `Quick
          test_warm_repeat_identical_and_cached;
        Alcotest.test_case "repeated analyze differs only in id" `Quick
          test_repeat_analyze_reuses_payload;
        Alcotest.test_case "oversized splitting sweep is an error" `Quick
          test_oversized_splitting_is_an_error;
        Alcotest.test_case "negative pid is a line-numbered error" `Quick
          test_negative_pid_is_an_error;
        Alcotest.test_case "bftcup run streams trace and metrics" `Quick
          test_bftcup_run_streams_trace_and_metrics;
        Alcotest.test_case "request jobs clamped to the daemon's" `Quick
          test_request_jobs_clamped;
        Alcotest.test_case "empty family sink is an error" `Quick
          test_empty_family_sink_is_an_error;
        Alcotest.test_case "socket: two clients interleave" `Quick
          test_socket_concurrent_clients;
        Alcotest.test_case "socket: session bytes match stdio" `Quick
          test_socket_session_matches_stdio;
        Alcotest.test_case "socket: a dropped client ends only itself" `Quick
          test_socket_dropped_client;
        Alcotest.test_case "analyze keeps nothing alive" `Quick
          test_analyze_keeps_nothing;
        Alcotest.test_case "socket: an oversized line is skipped" `Quick
          test_socket_oversized_line;
      ] );
  ]
