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

let rec no_dup = function
  | [] -> true
  | x :: rest -> (not (List.mem x rest)) && no_dup rest

let valid_path t ~src ~origin path =
  match path with
  | [] -> false
  | first :: _ ->
      Pid.equal first origin
      && (match List.rev path with
         | last :: _ -> Pid.equal last src
         | [] -> false)
      && no_dup path
      && not (List.mem t.self path)

(* Internal vertices of a path from the receiver's standpoint: every
   relayer after the origin. *)
let internals = function [] -> [] | _origin :: rest -> rest

let disjoint p q =
  not (List.exists (fun x -> List.mem x (internals q)) (internals p))

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

let delivery_rule t st ~src ~origin =
  Pid.equal src origin
  ||
  let by_length =
    List.sort
      (fun a b -> Int.compare (List.length a) (List.length b))
      st.paths
  in
  pick [] by_length (t.f + 1)

let on_get_sink t ~send ~src ~origin ~path =
  if not (valid_path t ~src ~origin path) then None
  else begin
    let st = state_for t origin in
    if not (List.mem path st.paths) then begin
      st.paths <- path :: st.paths;
      (* Relay with ourselves appended, respecting the traffic cap. *)
      if st.forwarded < t.max_copies then begin
        st.forwarded <- st.forwarded + 1;
        bump t.c_relays;
        let extended = path @ [ t.self ] in
        Pid.Set.iter
          (fun j ->
            if (not (List.mem j path)) && not (Pid.equal j origin) then
              send j (Msg.Get_sink { origin; path = extended }))
          t.neighbors
      end
    end;
    if (not st.delivered) && delivery_rule t st ~src ~origin then begin
      st.delivered <- true;
      bump t.c_deliveries;
      Some origin
    end
    else None
  end
