exception Job_failed of string

let has_fork = not Sys.win32

(* ------------------------------------------------------------------ *)
(* The per-call fork pool: [map_chunked] forks its workers for one
   batch and reaps them before returning.

   - Work is handed out dynamically through a make-jobserver-style
     token pipe: the parent writes one byte per chunk id and closes
     the write end before forking, each worker loops single-byte reads
     until EOF. One-byte reads from a pipe are atomic among competing
     readers, so a token goes to exactly one worker and a slow chunk
     never pins a statically assigned share of the batch.
   - Each chunk's results travel as their own compact marshalled frame
     [(chunk_id, rows)], so the parent can drain pipes while workers
     still compute and the Marshal tax is paid per result row, never
     per retained table.
   - The child exits with [Unix._exit] so the duplicated stdio buffers
     and [at_exit] handlers of the parent never run twice. *)

(* Chunk ids must fit the one-byte token, so at most 256 chunks: a
   request for more is refused loudly (callers — {!Exec} — raise the
   chunk size, never the token width). *)
let max_chunks = 256

let check_chunk_budget ~where ~chunk n =
  let nchunks = (n + chunk - 1) / chunk in
  if nchunks > max_chunks then
    invalid_arg
      (Printf.sprintf
         "%s: %d jobs in chunks of %d make %d chunks, over the %d-chunk \
          one-byte token budget; raise ~chunk to at least %d"
         where n chunk nchunks max_chunks
         ((n + max_chunks - 1) / max_chunks));
  nchunks

type 'b chunk_outcome = ('b list, int * string) result

(* Chunk [cid]'s results in input order, or the index and exception
   text (plus backtrace) of its first failing job. *)
let run_chunk ~chunk ~n f (input : _ array) cid : _ chunk_outcome =
  let start = cid * chunk in
  let stop = min n (start + chunk) in
  let rec go i acc =
    if i >= stop then Ok (List.rev acc)
    else
      match f input.(i) with
      | y -> go (i + 1) (y :: acc)
      | exception e ->
          let bt = Printexc.get_backtrace () in
          Error
            ( i,
              Printexc.to_string e
              ^ if bt = "" then "" else "\n" ^ String.trim bt )
  in
  go start []

let chunk_worker ~token_r ~result_w ~chunk ~n f (input : _ array) =
  (try
     let oc = Unix.out_channel_of_descr result_w in
     let buf = Bytes.create 1 in
     let rec loop () =
       match Unix.read token_r buf 0 1 with
       | 0 -> ()
       | _ ->
           let cid = Char.code (Bytes.get buf 0) in
           let frame = (cid, run_chunk ~chunk ~n f input cid) in
           Marshal.to_channel oc frame [];
           loop ()
       | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
     in
     loop ();
     flush oc
   with _ -> Unix._exit 2);
  Unix._exit 0

let map_chunked ~chunk ~workers f xs =
  let n = List.length xs in
  if n = 0 then []
  else begin
    let input = Array.of_list xs in
    let chunk = max 1 chunk in
    let nchunks = check_chunk_budget ~where:"Simkit.Pool.map_chunked" ~chunk n in
    let workers = max 1 (min workers nchunks) in
    flush stdout;
    flush stderr;
    let token_r, token_w = Unix.pipe ~cloexec:false () in
    let tokens = Bytes.init nchunks Char.chr in
    (* At most 256 bytes — far below the pipe buffer, so one write
       never blocks, and closing the write end before any fork gives
       every worker a clean EOF once the tokens run out. *)
    let wrote = Unix.write token_w tokens 0 nchunks in
    Unix.close token_w;
    if wrote <> nchunks then begin
      Unix.close token_r;
      raise (Job_failed "token pipe refused the chunk list")
    end;
    let spawned =
      Array.init workers (fun _ ->
          let r, w = Unix.pipe ~cloexec:false () in
          match Unix.fork () with
          | 0 ->
              Unix.close r;
              chunk_worker ~token_r ~result_w:w ~chunk ~n f input
          | pid ->
              Unix.close w;
              (pid, r))
    in
    Unix.close token_r;
    (* Drain every worker before acting on any failure: a crashed job
       must surface as an exception, never as a hang or a zombie. *)
    let outcomes : _ chunk_outcome option array = Array.make nchunks None in
    let transport = ref [] in
    Array.iter
      (fun (pid, r) ->
        let ic = Unix.in_channel_of_descr r in
        (try
           let rec drain () =
             let cid, (o : _ chunk_outcome) = Marshal.from_channel ic in
             (if cid < 0 || cid >= nchunks then
                transport :=
                  Printf.sprintf "worker answered unknown chunk %d" cid
                  :: !transport
              else
                match outcomes.(cid) with
                | None -> outcomes.(cid) <- Some o
                | Some _ ->
                    transport :=
                      Printf.sprintf "worker answered chunk %d twice" cid
                      :: !transport);
             drain ()
           in
           drain ()
         with
        | End_of_file -> ()
        | e ->
            transport :=
              ("worker died before reporting: " ^ Printexc.to_string e)
              :: !transport);
        (try close_in ic with Sys_error _ -> ());
        let _, status = Unix.waitpid [] pid in
        match status with
        | Unix.WEXITED 0 -> ()
        | Unix.WEXITED c ->
            transport :=
              Printf.sprintf "worker terminated abnormally: exit %d" c
              :: !transport
        | Unix.WSIGNALED s ->
            transport :=
              Printf.sprintf "worker terminated abnormally: signal %d" s
              :: !transport
        | Unix.WSTOPPED s ->
            transport :=
              Printf.sprintf "worker terminated abnormally: stopped %d" s
              :: !transport)
      spawned;
    let slots = Array.make n None in
    let failures = ref [] in
    let truncated = ref false in
    Array.iteri
      (fun cid o ->
        match o with
        | None -> ()
        | Some (Error (i, msg)) -> failures := (i, msg) :: !failures
        | Some (Ok rows) ->
            let start = cid * chunk in
            let stop = min n (start + chunk) in
            if List.length rows <> stop - start then truncated := true
            else List.iteri (fun j y -> slots.(start + j) <- Some y) rows)
      outcomes;
    (* Job failures win over transport noise, and the minimum job index
       wins among them: token claiming is monotonic, so the first
       failure a sequential run would have hit was always attempted —
       this is the same deterministic choice the domain backend makes. *)
    match List.sort (fun (i, _) (j, _) -> Int.compare i j) !failures with
    | (_, msg) :: _ -> raise (Job_failed msg)
    | [] -> (
        match List.rev !transport with
        | msg :: _ -> raise (Job_failed msg)
        | [] ->
            if !truncated then
              raise (Job_failed "worker returned a truncated result list");
            Array.to_list
              (Array.map
                 (function
                   | Some y -> y | None -> raise (Job_failed "missing result"))
                 slots))
  end

(* ------------------------------------------------------------------ *)
(* Persistent fork pool, used by {!Exec} as the warm fork backend.

   The per-call [map_chunked] above pays a fork+exit per worker per
   batch. The persistent variant forks the workers once and parks them
   on a [select]: each worker owns a private command pipe (parent to
   child, length-framed [Marshal]ed job descriptors, closures allowed —
   fork guarantees the identical code segment the [Closures] flag
   requires) and a private result pipe (child to parent, length-framed
   marshalled chunk frames), while all workers share the same
   jobserver-style one-byte token pipe as [map_chunked] for dynamic
   chunk claiming.

   Batch protocol: the parent writes the batch descriptor — the job,
   and whether this worker claims tokens — to EVERY worker's command
   pipe, then writes one token per chunk, then drains exactly
   [nchunks] frames off all the result pipes. Batches are collected to
   completion before the next is submitted, so the token pipe is empty
   between batches. A token is always computed under the batch it
   belongs to: a worker drains its command pipe after reading a token
   and before computing it, and at that moment the token's descriptor
   is already queued (descriptors are fully written before any token
   exists, and each pipe delivers in order) while the next batch's
   cannot exist yet (that waits for this token's frame). Several
   workers can wake for one token, and the losers block in [read]
   until the next batch, possibly one that stands them down; since
   every descriptor carries the job and the parent reads every result
   pipe, such a late token is still computed and collected.

   Failure envelope: a job exception travels as an [Error] frame and
   the pool stays warm (minimum-index [Job_failed] semantics as
   everywhere else); anything wrong with the transport — a worker
   died, a pipe broke, a frame did not parse, a job closure was not
   marshal-safe — tears the whole pool down and falls back to one
   per-call [map_chunked], which recomputes from scratch, so the
   caller never sees the difference. *)
(* ------------------------------------------------------------------ *)

exception Fork_transport of string

let frame_header = 8

let write_exact fd s =
  let n = String.length s in
  let rec go off =
    if off < n then
      match Unix.write_substring fd s off (n - off) with
      | w -> go (off + w)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let read_exact fd n =
  let buf = Bytes.create n in
  let rec go off =
    if off < n then
      match Unix.read fd buf off (n - off) with
      | 0 -> raise End_of_file
      | r -> go (off + r)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0;
  Bytes.unsafe_to_string buf

let write_frame fd s =
  let hdr = Bytes.create frame_header in
  Bytes.set_int64_be hdr 0 (Int64.of_int (String.length s));
  write_exact fd (Bytes.unsafe_to_string hdr);
  write_exact fd s

let read_frame fd =
  let hdr = read_exact fd frame_header in
  let len = Int64.to_int (Bytes.get_int64_be (Bytes.of_string hdr) 0) in
  if len < 0 || len > 1 lsl 30 then
    raise (Fork_transport (Printf.sprintf "bad frame length %d" len));
  read_exact fd len

(* ---- the parked worker (child side) ------------------------------ *)

let persistent_worker ~cmd_r ~token_r ~result_w =
  let job : (int -> string) option ref = ref None in
  let claims = ref false in
  (* [false] on command-pipe EOF: the parent shut the pool down. *)
  let read_cmd () =
    match read_frame cmd_r with
    | exception End_of_file -> false
    | s ->
        let participate, (j : int -> string) = Marshal.from_string s 0 in
        job := Some j;
        claims := participate;
        true
  in
  let buf = Bytes.create 1 in
  let run () =
    (* Applies every queued descriptor, including batches this worker
       slept through. *)
    let rec drain_cmd () =
      match Unix.select [ cmd_r ] [] [] 0.0 with
      | [ _ ], _, _ -> read_cmd () && drain_cmd ()
      | _ -> true
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain_cmd ()
    in
    let rec loop () =
      if drain_cmd () then begin
        let watch = if !claims then [ cmd_r; token_r ] else [ cmd_r ] in
        match Unix.select watch [] [] (-1.0) with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
        | ready, _, _ ->
            if List.mem cmd_r ready then begin
              if read_cmd () then loop ()
            end
            else begin
              match Unix.read token_r buf 0 1 with
              | 0 -> () (* parent gone: no more batches *)
              | _ ->
                  if drain_cmd () then begin
                    let cid = Char.code (Bytes.get buf 0) in
                    let out =
                      match !job with Some j -> j cid | None -> assert false
                    in
                    write_frame result_w out;
                    loop ()
                  end
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
            end
      end
    in
    loop ()
  in
  let code = match run () with () -> 0 | exception _ -> 2 in
  Unix._exit code

(* ---- pool state (parent side) ------------------------------------ *)

type fork_worker = { pid : int; cmd_w : Unix.file_descr; result_r : Unix.file_descr }

let fork_pool : fork_worker list ref = ref []
let fork_tokens : (Unix.file_descr * Unix.file_descr) option ref = ref None
let fork_owner = ref (-1)
let fork_peak = ref 0
let fork_batches = ref 0
let fork_teardown_registered = ref false

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let shutdown_persistent () =
  if !fork_owner = Unix.getpid () then begin
    (* EOF every command pipe first so the workers exit in parallel,
       then reap. A worker mid-write sees its result pipe close as
       EPIPE and exits too. *)
    List.iter (fun w -> close_quietly w.cmd_w) !fork_pool;
    List.iter (fun w -> close_quietly w.result_r) !fork_pool;
    Option.iter
      (fun (r, w) ->
        close_quietly r;
        close_quietly w)
      !fork_tokens;
    List.iter
      (fun w -> try ignore (Unix.waitpid [] w.pid) with Unix.Unix_error _ -> ())
      !fork_pool
  end;
  fork_pool := [];
  fork_tokens := None;
  fork_owner := -1

let persistent_workers () = List.length !fork_pool
let persistent_peak () = !fork_peak
let persistent_batches () = !fork_batches

let with_sigpipe_ignored thunk =
  if Sys.win32 then thunk ()
  else begin
    let old = Sys.signal Sys.sigpipe Sys.Signal_ignore in
    Fun.protect ~finally:(fun () -> Sys.set_signal Sys.sigpipe old) thunk
  end

let ensure_fork_pool wanted =
  if !fork_owner <> Unix.getpid () then begin
    (* Fresh process (first use, or state inherited through a fork):
       inherited descriptors belong to the original parent — drop the
       bookkeeping without touching them. *)
    fork_pool := [];
    fork_tokens := None;
    fork_owner := Unix.getpid ()
  end;
  let token_r, token_w =
    match !fork_tokens with
    | Some pair -> pair
    | None ->
        let pair = Unix.pipe ~cloexec:false () in
        fork_tokens := Some pair;
        pair
  in
  if not !fork_teardown_registered then begin
    fork_teardown_registered := true;
    Stdlib.at_exit shutdown_persistent
  end;
  while List.length !fork_pool < wanted do
    flush stdout;
    flush stderr;
    let existing = !fork_pool in
    let cmd_r, cmd_w = Unix.pipe ~cloexec:false () in
    let result_r, result_w = Unix.pipe ~cloexec:false () in
    match Unix.fork () with
    | 0 ->
        Unix.close cmd_w;
        Unix.close result_r;
        Unix.close token_w;
        (* Parent-side ends of the siblings: holding them open would
           defeat their EOF-based shutdown. *)
        List.iter
          (fun w ->
            close_quietly w.cmd_w;
            close_quietly w.result_r)
          existing;
        persistent_worker ~cmd_r ~token_r ~result_w
    | pid ->
        Unix.close cmd_r;
        Unix.close result_w;
        fork_pool := existing @ [ { pid; cmd_w; result_r } ];
        fork_peak := max !fork_peak (List.length !fork_pool)
  done;
  token_w

(* ---- batch submission -------------------------------------------- *)

let map_persistent ~chunk ~workers f xs =
  let n = List.length xs in
  if n = 0 then []
  else begin
    let input = Array.of_list xs in
    let chunk = max 1 chunk in
    let nchunks =
      check_chunk_budget ~where:"Simkit.Pool.map_persistent" ~chunk n
    in
    let workers = max 1 (min workers nchunks) in
    let job cid = Marshal.to_string (cid, run_chunk ~chunk ~n f input cid) [] in
    (* The job ships to long-lived workers by closure marshalling, so
       its captures ([f]'s environment, the input array) must be
       marshal-safe. When they are not — abstract blocks, channels —
       fall back to the per-call pool, which inherits everything
       through fork. *)
    match Marshal.to_string (true, job) [ Marshal.Closures ] with
    | exception _ -> map_chunked ~chunk ~workers f xs
    | active_desc -> (
        let standdown_desc =
          lazy (Marshal.to_string (false, job) [ Marshal.Closures ])
        in
        let outcomes : _ chunk_outcome option array = Array.make nchunks None in
        let submitted =
          try
            with_sigpipe_ignored @@ fun () ->
            let token_w = ensure_fork_pool workers in
            incr fork_batches;
            let members =
              List.mapi (fun i w -> (i < workers, w)) !fork_pool
            in
            List.iter
              (fun (participate, w) ->
                write_frame w.cmd_w
                  (if participate then active_desc
                   else Lazy.force standdown_desc))
              members;
            let tokens = Bytes.init nchunks Char.chr in
            let wrote =
              Unix.write token_w tokens 0 nchunks
              (* at most 256 bytes: one write, never blocks *)
            in
            if wrote <> nchunks then
              raise (Fork_transport "token pipe refused the chunk list");
            let fds = List.map (fun w -> w.result_r) !fork_pool in
            let remaining = ref nchunks in
            while !remaining > 0 do
              match Unix.select fds [] [] (-1.0) with
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
              | ready, _, _ ->
                  List.iter
                    (fun fd ->
                      if !remaining > 0 then begin
                        let s = read_frame fd in
                        let cid, (o : _ chunk_outcome) =
                          Marshal.from_string s 0
                        in
                        if cid < 0 || cid >= nchunks then
                          raise
                            (Fork_transport
                               (Printf.sprintf "unknown chunk %d answered" cid));
                        (match outcomes.(cid) with
                        | Some _ ->
                            raise
                              (Fork_transport
                                 (Printf.sprintf "chunk %d answered twice" cid))
                        | None -> outcomes.(cid) <- Some o);
                        decr remaining
                      end)
                    ready
            done;
            true
          with
          | Fork_transport _ | End_of_file
          | Unix.Unix_error _
          | Failure _ | Sys_error _
          ->
            (* Transport trouble: the pool is in an unknown state.
               Tear it down (a fresh one respawns on next use) and
               recompute the whole batch per-call — job side effects
               never escape a worker, so the retry is invisible. *)
            shutdown_persistent ();
            false
        in
        if not submitted then map_chunked ~chunk ~workers f xs
        else begin
          let slots = Array.make n None in
          let failures = ref [] in
          let truncated = ref false in
          Array.iteri
            (fun cid o ->
              match o with
              | None -> truncated := true
              | Some (Error (i, msg)) -> failures := (i, msg) :: !failures
              | Some (Ok rows) ->
                  let start = cid * chunk in
                  let stop = min n (start + chunk) in
                  if List.length rows <> stop - start then truncated := true
                  else List.iteri (fun j y -> slots.(start + j) <- Some y) rows)
            outcomes;
          (* Same precedence as [map_chunked]: the minimum-index job
             failure wins (token claiming is monotonic, so that job was
             always attempted); a malformed result set is transport
             trouble and goes down the teardown-and-retry path. *)
          match List.sort (fun (i, _) (j, _) -> Int.compare i j) !failures with
          | (_, msg) :: _ -> raise (Job_failed msg)
          | [] ->
              if
                !truncated
                || Array.exists Option.is_none slots
              then begin
                shutdown_persistent ();
                map_chunked ~chunk ~workers f xs
              end
              else
                Array.to_list
                  (Array.map
                     (function Some y -> y | None -> assert false)
                     slots)
        end)
  end
