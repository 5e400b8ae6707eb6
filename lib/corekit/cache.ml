(* Keyed LRU with uniform stats. The entry list is short (handle caches
   hold tens of entries, not thousands), so a plain list with promote-
   on-hit is both the simplest and the fastest structure: one traversal
   per lookup, no hashing of possibly-large keys (the handle caches key
   by physical equality of whole systems/graphs). *)

(* Cache operations run inside a pluggable critical section. The
   default is a no-op (single-domain processes pay nothing); the
   parallel executor installs a mutex-backed protector before spawning
   domains, so the entry-list/length pair always moves atomically.
   The mutex itself lives in Simkit.Exec — this module only runs the
   closure it is handed, keeping parallelism primitives behind the
   executor seam (stellar-lint rule D6). *)
type protector = { protect : 'a. (unit -> 'a) -> 'a }

(* lint: allow R2 — this ref IS the lock seam: Exec arms it before its first spawn and nothing writes it afterwards *)
let protector = ref { protect = (fun f -> f ()) }
let set_protector p = protector := p
let protected f = !protector.protect f

type ('k, 'v) t = {
  cname : string;
  equal : 'k -> 'k -> bool;
  mutable cap : int;
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

let set_capacity t capacity =
  if capacity < 1 then
    invalid_arg
      (Printf.sprintf "Core.Cache.set_capacity %s: capacity < 1" t.cname);
  protected (fun () ->
      t.cap <- capacity;
      if t.len > capacity then begin
        let kept, dropped = take capacity 0 t.entries in
        t.entries <- kept;
        t.len <- capacity;
        t.evictions <- t.evictions + dropped
      end)

let find_opt_raw t k =
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

let find_opt t k = protected (fun () -> find_opt_raw t k)

let add_raw t k v =
  if t.len >= t.cap then begin
    let kept, dropped = take (t.cap - 1) 0 t.entries in
    t.entries <- kept;
    t.len <- t.cap - 1;
    t.evictions <- t.evictions + dropped
  end;
  t.entries <- (k, v) :: t.entries;
  t.len <- t.len + 1

let add t k v = protected (fun () -> add_raw t k v)

let find_or_add t k compute =
  match find_opt t k with
  | Some v -> v
  | None ->
      (* [compute] runs outside the critical section — compiling a
         quorum system or a CSR graph is exactly the expensive work
         the lock must not serialize. *)
      let v = compute () in
      protected (fun () ->
          (* Another worker may have inserted the key while we
             computed: prefer the resident value so callers memoizing
             by physical equality keep one stable handle. The probe
             counts no stats, so sequential counts are unchanged. *)
          let rec probe = function
            | [] ->
                add_raw t k v;
                v
            | (k', v') :: _ when t.equal k' k -> v'
            | _ :: tl -> probe tl
          in
          probe t.entries)

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
