open Graphkit

type origin_state = {
  mutable paths : Pid.t list list;  (* validated relay paths, origin first *)
  mutable forwarded : int;
  mutable delivered : bool;
}

type t = {
  self : Pid.t;
  neighbors : Pid.Set.t;
  f : int;
  max_copies : int;
  states : (Pid.t, origin_state) Hashtbl.t;
  c_broadcasts : Obs.Metrics.counter option;
  c_relays : Obs.Metrics.counter option;
  c_deliveries : Obs.Metrics.counter option;
}

let create ~self ~neighbors ~f ?metrics () =
  let c name = Option.map (fun r -> Obs.Metrics.counter r name) metrics in
  {
    self;
    neighbors = Pid.Set.remove self neighbors;
    f;
    max_copies = 4 * (f + 1);
    states = Hashtbl.create 8;
    c_broadcasts = c "rbcast_broadcasts";
    c_relays = c "rbcast_relays";
    c_deliveries = c "rbcast_deliveries";
  }

let bump = function Some c -> Obs.Metrics.incr c | None -> ()

let state_for t origin =
  match Hashtbl.find_opt t.states origin with
  | Some s -> s
  | None ->
      let s = { paths = []; forwarded = 0; delivered = false } in
      Hashtbl.replace t.states origin s;
      s

let broadcast t ~send =
  bump t.c_broadcasts;
  (* The origin trivially "delivers" its own broadcast. *)
  (state_for t t.self).delivered <- true;
  Pid.Set.iter
    (fun j -> send j (Msg.Get_sink { origin = t.self; path = [ t.self ] }))
    t.neighbors

(* [List.mem] on pids, without the polymorphic [compare] per element. *)
let rec mem_pid x = function
  | [] -> false
  | y :: rest -> Pid.equal x y || mem_pid x rest

(* The path ends at the physical sender, repeats no process and avoids
   the receiver; one pass, from the first vertex on. *)
let rec valid_tail ~self ~src = function
  | [] -> false
  | [ last ] -> Pid.equal last src && not (Pid.equal last self)
  | x :: rest ->
      (not (Pid.equal x self))
      && (not (mem_pid x rest))
      && valid_tail ~self ~src rest

let valid_path t ~src ~origin path =
  match path with
  | [] -> false
  | first :: _ -> Pid.equal first origin && valid_tail ~self:t.self ~src path

let rec shares xs ys =
  match xs with [] -> false | x :: rest -> mem_pid x ys || shares rest ys

(* Internally disjoint: no relayer in common. A path's relayers are its
   vertices after the origin, from the receiver's standpoint. *)
let disjoint p q =
  match (p, q) with
  | _ :: ip, _ :: iq -> not (shares ip iq)
  | [], _ | _, [] -> true

(* Exact search for [needed] pairwise internally-disjoint paths. *)
let rec pick chosen candidates needed =
  needed = 0
  ||
  match candidates with
  | [] -> false
  | p :: rest ->
      (List.for_all (disjoint p) chosen
      && pick (p :: chosen) rest (needed - 1))
      || pick chosen rest needed

(* The delivery rule — f + 1 pairwise internally-disjoint stored paths,
   or a direct copy — asked only when a fresh path [fresh] joins the
   undelivered [stored] ones. Those held no f + 1 disjoint paths, or
   the origin would have been delivered when the last of them arrived,
   so the rule holds now iff [f] of them are pairwise disjoint and
   disjoint from [fresh]. A duplicate copy changes nothing the rule
   reads, so it never gets here. *)
let delivers t ~src ~origin ~fresh stored =
  Pid.equal src origin || pick [] (List.filter (disjoint fresh) stored) t.f

let on_get_sink t ~send ~src ~origin ~path =
  match Hashtbl.find_opt t.states origin with
  | Some st when st.delivered && st.forwarded >= t.max_copies ->
      (* Delivered and at the relay cap: no copy can send or deliver. *)
      None
  | Some _ | None ->
      if not (valid_path t ~src ~origin path) then None
      else
        let st = state_for t origin in
        let stored = st.paths in
        if List.exists (List.equal Pid.equal path) stored then None
        else begin
          st.paths <- path :: stored;
          (* Relay with ourselves appended, respecting the traffic cap,
             to every neighbour off the path (the origin heads it). *)
          if st.forwarded < t.max_copies then begin
            st.forwarded <- st.forwarded + 1;
            bump t.c_relays;
            let m = Msg.Get_sink { origin; path = path @ [ t.self ] } in
            Pid.Set.iter
              (fun j -> if not (mem_pid j path) then send j m)
              t.neighbors
          end;
          if (not st.delivered) && delivers t ~src ~origin ~fresh:path stored
          then begin
            st.delivered <- true;
            bump t.c_deliveries;
            Some origin
          end
          else None
        end
