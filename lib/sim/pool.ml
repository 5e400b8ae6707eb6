exception Job_failed of string

let has_fork = not Sys.win32

(* ------------------------------------------------------------------ *)
(* The fork pool behind {!Exec}: workers are forked once and parked on
   a [select] between batches.

   - Each worker owns a private command pipe (parent to child,
     length-framed [Marshal]ed batch descriptors, closures allowed —
     fork guarantees the identical code segment the [Closures] flag
     requires) and a private result pipe (child to parent,
     length-framed marshalled chunk frames).
   - Work is handed out dynamically through one make-jobserver-style
     token pipe shared by all workers: the parent writes one byte per
     chunk id. One-byte reads from a pipe are atomic among competing
     readers, so a token goes to exactly one worker and a slow chunk
     never pins a statically assigned share of the batch.
   - Each chunk's results travel as their own compact marshalled frame
     [(chunk_id, rows)], so the parent drains pipes while workers still
     compute and the Marshal tax is paid per result row, never per
     retained table.
   - A worker exits with [Unix._exit] so the duplicated stdio buffers
     and [at_exit] handlers of the parent never run twice.

   A job reaches the workers one of two ways. When it marshals, the
   parent writes the batch descriptor — the job, and whether this
   worker claims tokens — to EVERY parked worker's command pipe, and
   any worker forked to grow the pool inherits the job instead. When it
   does not (a channel, a custom block in its captures), the pool is
   torn down and forked afresh, so every worker inherits the job; the
   new workers then stay parked for the next batch. Either way the
   parent then writes one token per chunk and drains exactly [nchunks]
   frames off all the result pipes.

   Batches are collected to completion before the next is submitted,
   so the token pipe is empty between batches. A token is always
   computed under the batch it belongs to: a worker drains its command
   pipe after reading a token and before computing it, and at that
   moment the token's descriptor is already queued (descriptors are
   fully written before any token exists, and each pipe delivers in
   order) while the next batch's cannot exist yet (that waits for this
   token's frame). Several workers can wake for one token, and the
   losers block in [read] until the next batch, possibly one that
   stands them down; since every descriptor carries the job and the
   parent reads every result pipe, such a late token is still computed
   and collected.

   Failure envelope: a job exception travels as an [Error] frame and
   the pool stays warm; the minimum-index failure is re-raised as
   {!Job_failed}. Anything wrong with the transport — a worker died, a
   pipe broke, a frame did not parse — tears the pool down and runs
   the batch once more on a freshly forked pool, which recomputes from
   scratch (job side effects never escape a worker), so the caller
   never sees the difference. A second transport fault is a
   {!Job_failed}. *)
(* ------------------------------------------------------------------ *)

(* Chunk ids must fit the one-byte token, so at most 256 chunks: a
   request for more is refused loudly (callers — {!Exec} — raise the
   chunk size, never the token width). *)
let max_chunks = 256

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

(* [job] is the batch this worker was forked into: it claims that
   batch's tokens before its first descriptor arrives. *)
let worker ~cmd_r ~token_r ~result_w (job : int -> string) =
  let job = ref job in
  let claims = ref true in
  (* [false] on command-pipe EOF: the parent shut the pool down. *)
  let read_cmd () =
    match read_frame cmd_r with
    | exception End_of_file -> false
    | s ->
        let participate, (j : int -> string) = Marshal.from_string s 0 in
        job := j;
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
                    write_frame result_w (!job (Char.code (Bytes.get buf 0)));
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

(* Forgets pool state inherited through a fork: those descriptors
   belong to the original parent, so they are dropped untouched. *)
let adopt_pool () =
  if !fork_owner <> Unix.getpid () then begin
    fork_pool := [];
    fork_tokens := None;
    fork_owner := Unix.getpid ()
  end

(* Grows the pool to [wanted] workers, each forked into [job]; returns
   the token pipe's write end. *)
let grow_pool ~job wanted =
  adopt_pool ();
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
        worker ~cmd_r ~token_r ~result_w job
    | pid ->
        Unix.close cmd_r;
        Unix.close result_w;
        fork_pool := existing @ [ { pid; cmd_w; result_r } ];
        fork_peak := max !fork_peak (List.length !fork_pool)
  done;
  token_w

(* ---- batch submission -------------------------------------------- *)

(* One batch on the pool, collected to completion: every chunk's rows
   land in their input slots and every chunk's first job failure in
   the returned list. The parked workers are told [job] by descriptor;
   when it does not marshal, or [fresh] is set, they are replaced by
   workers forked into it. Transport trouble escapes. *)
let run_batch ~chunk ~n ~nchunks ~workers ~fresh job =
  with_sigpipe_ignored @@ fun () ->
  adopt_pool ();
  let describe participate =
    Marshal.to_string (participate, job) [ Marshal.Closures ]
  in
  let active =
    match !fork_pool with
    | _ :: _ when not fresh -> (
        match describe true with s -> Some s | exception _ -> None)
    | _ -> None
  in
  if Option.is_none active then shutdown_persistent ();
  let parked = !fork_pool in
  let token_w = grow_pool ~job workers in
  incr fork_batches;
  Option.iter
    (fun active ->
      let standdown = lazy (describe false) in
      List.iteri
        (fun i w ->
          write_frame w.cmd_w
            (if i < workers then active else Lazy.force standdown))
        parked)
    active;
  let tokens = Bytes.init nchunks Char.chr in
  (* at most 256 bytes: one write, never blocks *)
  if Unix.write token_w tokens 0 nchunks <> nchunks then
    raise (Fork_transport "token pipe refused the chunk list");
  let slots = Array.make n None in
  let answered = Array.make nchunks false in
  let failures = ref [] in
  let remaining = ref nchunks in
  let fds = List.map (fun w -> w.result_r) !fork_pool in
  while !remaining > 0 do
    match Unix.select fds [] [] (-1.0) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | ready, _, _ ->
        List.iter
          (fun fd ->
            if !remaining > 0 then begin
              let cid, (o : _ chunk_outcome) =
                Marshal.from_string (read_frame fd) 0
              in
              if cid < 0 || cid >= nchunks || answered.(cid) then
                raise
                  (Fork_transport
                     (Printf.sprintf "chunk %d answered out of turn" cid));
              answered.(cid) <- true;
              (match o with
              | Error failure -> failures := failure :: !failures
              | Ok rows ->
                  let start = cid * chunk in
                  if List.length rows <> min n (start + chunk) - start then
                    raise
                      (Fork_transport
                         (Printf.sprintf "chunk %d came back truncated" cid));
                  List.iteri (fun j y -> slots.(start + j) <- Some y) rows);
              decr remaining
            end)
          ready
  done;
  (slots, !failures)

let map_persistent ~chunk ~workers f xs =
  let n = List.length xs in
  if n = 0 then []
  else begin
    let input = Array.of_list xs in
    let chunk = max 1 chunk in
    let nchunks = (n + chunk - 1) / chunk in
    if nchunks > max_chunks then
      invalid_arg
        (Printf.sprintf
           "Simkit.Pool.map_persistent: %d jobs in chunks of %d make %d \
            chunks, over the %d-chunk one-byte token budget; raise ~chunk to \
            at least %d"
           n chunk nchunks max_chunks
           ((n + max_chunks - 1) / max_chunks));
    let workers = max 1 (min workers nchunks) in
    let job cid = Marshal.to_string (cid, run_chunk ~chunk ~n f input cid) [] in
    let rec attempt ~fresh =
      match run_batch ~chunk ~n ~nchunks ~workers ~fresh job with
      | outcome -> outcome
      | exception
          ((Fork_transport _ | End_of_file | Unix.Unix_error _ | Failure _
           | Sys_error _) as e) ->
          (* The pool is in an unknown state: tear it down, and run the
             batch once more on a pool forked into the job. *)
          shutdown_persistent ();
          if not fresh then attempt ~fresh:true
          else
            raise
              (Job_failed
                 ("fork pool transport failed twice: "
                 ^
                 match e with
                 | Fork_transport msg -> msg
                 | End_of_file -> "a worker died before reporting"
                 | e -> Printexc.to_string e))
    in
    let slots, failures = attempt ~fresh:false in
    (* Job failures win, and the minimum job index among them: token
       claiming is monotonic, so the first failure a sequential run
       would have hit was always attempted — the same deterministic
       choice the domain backend makes. *)
    match List.sort (fun (i, _) (j, _) -> Int.compare i j) failures with
    | (_, msg) :: _ -> raise (Job_failed msg)
    | [] ->
        Array.to_list
          (Array.map (function Some y -> y | None -> assert false) slots)
  end
