(* Keyed LRU with uniform stats. The entry list is short (the daemon's
   caches hold tens of entries, not thousands), so a plain list with
   promote-on-hit is both the simplest and the fastest structure: one
   traversal per lookup. A cache is plain mutable state with no lock
   of its own; a caller that shares one between domains runs every
   operation inside [Simkit.Exec.protect], as the daemon does. *)

type ('k, 'v) t = {
  cname : string;
  equal : 'k -> 'k -> bool;
  cap : int;
  mutable entries : ('k * 'v) list;  (* most recently used first *)
  mutable len : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ?(equal = ( == )) ~name ~capacity () =
  if capacity < 1 then
    invalid_arg (Printf.sprintf "Core.Cache.create %s: capacity < 1" name);
  {
    cname = name;
    equal;
    cap = capacity;
    entries = [];
    len = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let name t = t.cname
let capacity t = t.cap
let length t = t.len
let to_list t = t.entries

(* Keep the first [n] entries, reporting how many were dropped. *)
let rec take n dropped = function
  | [] -> ([], dropped)
  | rest when n = 0 -> ([], dropped + List.length rest)
  | x :: tl ->
      let kept, dropped = take (n - 1) dropped tl in
      (x :: kept, dropped)

let find_opt t k =
  let rec pull acc = function
    | [] -> None
    | ((k', _) as e) :: tl when t.equal k' k ->
        t.entries <- e :: List.rev_append acc tl;
        Some (snd e)
    | e :: tl -> pull (e :: acc) tl
  in
  match pull [] t.entries with
  | Some v ->
      t.hits <- t.hits + 1;
      Some v
  | None ->
      t.misses <- t.misses + 1;
      None

let add t k v =
  if t.len >= t.cap then begin
    let kept, dropped = take (t.cap - 1) 0 t.entries in
    t.entries <- kept;
    t.len <- t.cap - 1;
    t.evictions <- t.evictions + dropped
  end;
  t.entries <- (k, v) :: t.entries;
  t.len <- t.len + 1

let find_or_add t k compute =
  match find_opt t k with
  | Some v -> v
  | None ->
      let v = compute () in
      add t k v;
      v

(* Declared after the mutators so the immutable stats fields do not
   shadow the cache record's mutable counters of the same name. *)
type stats = {
  hits : int;
  misses : int;
  evictions : int;
  length : int;
  capacity : int;
}

let stats (c : _ t) =
  {
    hits = c.hits;
    misses = c.misses;
    evictions = c.evictions;
    length = c.len;
    capacity = c.cap;
  }

let stats_to_json s =
  Obs.Json.Obj
    [
      ("hits", Obs.Json.Int s.hits);
      ("misses", Obs.Json.Int s.misses);
      ("evictions", Obs.Json.Int s.evictions);
      ("length", Obs.Json.Int s.length);
      ("capacity", Obs.Json.Int s.capacity);
    ]
