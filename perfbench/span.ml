(* Wall-clock spans recorded from the benchmark's own code, around its
   calls into the layers' public functions.

   A recorder belongs to one domain: the sweep workload creates one
   inside each executor job and returns its spans as plain data, so no
   mutable state crosses a job boundary. Spans stay in memory and are
   written out once the run ends. *)

type span = {
  id : int;
  parent : int;  (** the enclosing span's id, or [-1] at an op's root *)
  op : int;  (** the operation this span belongs to *)
  name : string;
  t0 : float;
  t1 : float;
  words : float;  (** [Gc.minor_words] allocated between start and end *)
}

type t = {
  mutable spans : span list;
  mutable next : int;
  mutable stack : int list;
}

(* Seconds on the monotonic clock, to the nanosecond. serve's cache
   hits take about 20 us; gettimeofday's microsecond steps would be a
   twentieth of that. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let create () = { spans = []; next = 0; stack = [] }

let record r ~op name f =
  let id = r.next in
  r.next <- id + 1;
  let parent = match r.stack with p :: _ -> p | [] -> -1 in
  r.stack <- id :: r.stack;
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let finish () =
    let t1 = now () in
    let words = Gc.minor_words () -. w0 in
    r.stack <- List.tl r.stack;
    r.spans <- { id; parent; op; name; t0; t1; words } :: r.spans
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

let spans r = List.rev r.spans
let ms s = (s.t1 -. s.t0) *. 1000.

(* Self time: a span's duration minus the part its direct children
   cover (children never overlap: one recorder is one call stack).
   Ids are unique per op, so spans from several recorders mix. *)
let self_ms spans =
  let children = Hashtbl.create 64 in
  let covered op id =
    Option.value ~default:0. (Hashtbl.find_opt children (op, id))
  in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children (s.op, s.parent)
          (ms s +. covered s.op s.parent))
    spans;
  List.map (fun s -> (s, ms s -. covered s.op s.id)) spans

(* ---- statistics ------------------------------------------------------ *)

(* Linear interpolation between closest ranks. *)
let quantile q = function
  | [] -> 0.
  | xs ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let pos = q *. float_of_int (Array.length a - 1) in
      let lo = int_of_float pos in
      let hi = min (lo + 1) (Array.length a - 1) in
      a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs

(* Per-op sums of one quantity over the spans whose name satisfies
   [keep], for every op in [ops] (ops with no such span count 0). *)
let per_op ~ops ~keep value spans =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (s, self) ->
      if keep s.name then
        Hashtbl.replace tbl s.op
          (value (s, self)
          +. Option.value ~default:0. (Hashtbl.find_opt tbl s.op)))
    spans;
  List.map (fun op -> Option.value ~default:0. (Hashtbl.find_opt tbl op)) ops

(* Median over ops of the self time of spans named [name]. *)
let median_self_ms ~ops name selfs =
  median (per_op ~ops ~keep:(String.equal name) snd selfs)

(* Median over ops of the minor words (in millions) allocated inside
   spans whose name satisfies [keep]; nested spans are not double
   counted because the layers' spans are siblings. *)
let median_alloc_mw ~ops ~keep selfs =
  median (per_op ~ops ~keep (fun (s, _) -> s.words /. 1e6) selfs)

(* Median over ops of the root span's time not covered by any child. *)
let median_untracked_ms ~ops selfs =
  let root (s, self) = if s.parent < 0 then self else 0. in
  median (per_op ~ops ~keep:(fun _ -> true) root selfs)

(* One JSON line per span; times in ms from the run's first span, so
   they keep their microseconds. *)
let write_jsonl path spans =
  let origin = List.fold_left (fun m s -> Float.min m s.t0) infinity spans in
  let oc = open_out_bin path in
  List.iter
    (fun s ->
      output_string oc
        (Obs.Json.to_string
           (Obs.Json.Obj
              [
                ("id", Obs.Json.Int s.id);
                ("parent", Obs.Json.Int s.parent);
                ("op", Obs.Json.Int s.op);
                ("name", Obs.Json.String s.name);
                ("start_ms", Obs.Json.Float ((s.t0 -. origin) *. 1000.));
                ("ms", Obs.Json.Float (ms s));
                ("minor_words", Obs.Json.Float s.words);
              ]));
      output_char oc '\n')
    spans;
  close_out oc
