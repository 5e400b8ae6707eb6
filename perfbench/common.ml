(* What every workload shares: seed derivation, operation accounting,
   memory readings and the result record main.exe prints. *)

(* Every generated input draws its own seed from the workload seed, a
   stream tag and an index, so inputs never share randomness and the
   same [--seed] always yields the same inputs. *)
let derive ~seed ~stream k =
  let h = ref ((seed * 1_000_003) + (stream * 7_919) + k) in
  for _ = 1 to 3 do
    h := (!h lxor (!h lsr 17)) * 0x2545F491;
    h := !h land 0x3FFF_FFFF
  done;
  1 + !h

(* ---- operation accounting -------------------------------------------- *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;  (** the first few failure messages *)
  mutable sound : bool;  (** every run-level check held *)
}

let tally () = { attempted = 0; failed = 0; errors = []; sound = true }

let note t m = if List.length t.errors < 8 then t.errors <- t.errors @ [ m ]

(* A run-level check (set-up, or a traced mirror against the real
   entry point): its failure marks the whole run incorrect. *)
let invariant t ok msg =
  if not ok then begin
    t.sound <- false;
    note t msg
  end

(* One timed operation's outcome: [Ok ()] or the reason it failed. *)
let op_result t ~op = function
  | Ok () -> t.attempted <- t.attempted + 1
  | Error msg ->
      t.attempted <- t.attempted + 1;
      t.failed <- t.failed + 1;
      note t (Printf.sprintf "op %d: %s" op msg)

let guard f = try f () with e -> Error (Printexc.to_string e)

(* Set-up is timed from [start_setup] to [end_setup], with three host
   readings on either side; [end_setup] returns its wall time and the
   median reading. A set-up-only run (several of them give the median
   [setup_s]) ends there, right where the timed operations would
   start. *)
exception Setup_done of (float * float) * tally

let setup_readings host = List.init 3 (fun _ -> Host.read host)
let start_setup host = (setup_readings host, Span.now ())

let end_setup ~setup_only ~host (before, t_start) t =
  let setup_s = Span.now () -. t_start in
  let readings = before @ setup_readings host in
  let setup = (setup_s, Span.median (List.map (Host.ms host) readings)) in
  if setup_only then raise (Setup_done (setup, t));
  setup

(* ---- memory ----------------------------------------------------------- *)

(* Peak resident set (VmHWM) of [pid], in MB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec find () =
        match input_line ic with
        | exception End_of_file -> failwith ("no VmHWM in " ^ path)
        | line -> (
            match String.split_on_char ':' line with
            | [ "VmHWM"; v ] ->
                let kb = Scanf.sscanf (String.trim v) "%d kB" Fun.id in
                float_of_int kb /. 1024.
            | _ -> find ())
      in
      find ())

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The value at [path] in a JSON document, following object keys. *)
let json_at path j =
  List.fold_left
    (fun j k ->
      match j with Some (Obs.Json.Obj l) -> List.assoc_opt k l | _ -> None)
    (Some j) path

(* ---- the result ------------------------------------------------------- *)

type result = {
  setup_s : float;
  setup_reference_ms : float;  (** host kernel time around set-up *)
  latencies_ms : float list;  (** timed operations, untraced *)
  reference_ms : float list;
      (** host kernel time around each of [latencies_ms] *)
  wall_s : float;
      (** timed wall time of the untraced operations, less the time
          spent taking host readings *)
  peak_rss_mb : float;
  tally : tally;
  times : (string * float) list;  (** per-layer timings (traced runs) *)
  counts : (string * float) list;
      (** per-layer counts, exact across repeated traced runs *)
  spans : Span.span list;
}

let ratio a b = if b = 0. then 0. else a /. b
let counter m name = Obs.Metrics.counter_value (Obs.Metrics.counter m name)

(* Hits and misses of the process-wide compiled-handle caches
   (Fbqs.Quorum's and Graphkit.Csr's), summed over the calls wrapped
   in [counting]. *)
type caches = {
  mutable q_hits : int;
  mutable q_misses : int;
  mutable c_hits : int;
  mutable c_misses : int;
}

let caches () = { q_hits = 0; q_misses = 0; c_hits = 0; c_misses = 0 }

let counting d f =
  let q0 = Fbqs.Quorum.cache_stats () and c0 = Graphkit.Csr.cache_stats () in
  let v = f () in
  let q1 = Fbqs.Quorum.cache_stats () and c1 = Graphkit.Csr.cache_stats () in
  d.q_hits <- d.q_hits + q1.hits - q0.hits;
  d.q_misses <- d.q_misses + q1.misses - q0.misses;
  d.c_hits <- d.c_hits + c1.hits - c0.hits;
  d.c_misses <- d.c_misses + c1.misses - c0.misses;
  v

let cache_counts d ~ops =
  let per_op n = float_of_int n /. float_of_int (max 1 ops) in
  [
    ("quorum.cache_hits", per_op d.q_hits);
    ("quorum.cache_misses", per_op d.q_misses);
    ( "quorum.cache_hit_ratio",
      ratio (float_of_int d.q_hits) (float_of_int (d.q_hits + d.q_misses)) );
    ("quorum.cache_entries", float_of_int (Fbqs.Quorum.cache_stats ()).length);
    ("csr.cache_hits", per_op d.c_hits);
    ("csr.cache_misses", per_op d.c_misses);
  ]

(* [(traced p50 - untraced p50) / untraced p50], in percent. *)
let overhead_pct ~untraced ~traced =
  let u = Span.median untraced in
  ratio (Span.median traced -. u) u *. 100.
