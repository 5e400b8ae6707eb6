open Graphkit
open Simkit

type fault = Silent | Sink_liar of Pid.Set.t | Know_liar of Pid.Set.t

type node_state = {
  self : Pid.t;
  f : int;
  knowledge : Knowledge.t;
  rb : Rbcast.t;
  trace : Obs.Trace.sink option;
  c_know : Obs.Metrics.counter option;
  c_replies : Obs.Metrics.counter option;
  c_resolved : Obs.Metrics.counter option;
  mutable pending : Pid.Set.t;  (* delivered GET_SINK origins, unanswered *)
  mutable replies : Pid.Set.t Pid.Map.t;  (* responder -> claimed sink *)
  mutable sink : Pid.Set.t option;
  mutable reported : bool;
}

let make_state ~self ~pd ~f ?metrics ?trace () =
  let c name = Option.map (fun r -> Obs.Metrics.counter r name) metrics in
  {
    self;
    f;
    knowledge = Knowledge.create ~self ~pd ~f;
    rb = Rbcast.create ~self ~neighbors:pd ~f ?metrics ();
    trace;
    c_know = c "cup_know_received";
    c_replies = c "cup_sink_replies";
    c_resolved = c "cup_sinks_resolved";
    pending = Pid.Set.empty;
    replies = Pid.Map.empty;
    sink = None;
    reported = false;
  }

let bump = function Some c -> Obs.Metrics.incr c | None -> ()

let obs_event st ctx name fields =
  match st.trace with
  | None -> ()
  | Some sink ->
      Obs.Trace.emit sink ~time:(Engine.now ctx) ~scope:"cup" ~name
        (("node", Obs.Json.Int st.self) :: fields)

let sender ctx j m = Engine.send ctx j m

(* Once the sink is known, answer every pending GET_SINK request
   (Algorithm 3's send_sink loop). Rbcast delivers each origin once,
   so an answered origin never becomes pending again. *)
let flush_pending st ctx =
  match st.sink with
  | Some v when not (Pid.Set.is_empty st.pending) ->
      Pid.Set.iter (fun j -> sender ctx j (Msg.Sink_reply v)) st.pending;
      st.pending <- Pid.Set.empty
  | Some _ | None -> ()

let report st ctx ~on_result =
  match st.sink with
  | Some v when not st.reported ->
      st.reported <- true;
      bump st.c_resolved;
      obs_event st ctx "sink_resolved"
        [
          ("in_sink", Obs.Json.Bool (Pid.Set.mem st.self v));
          ("view_size", Obs.Json.Int (Pid.Set.cardinal v));
        ];
      on_result st.self
        { Sink_oracle.in_sink = Pid.Set.mem st.self v; view = v };
      flush_pending st ctx
  | Some _ | None -> ()

(* The wait_sink rule: adopt a value echoed by more than f distinct
   responders. When several candidate views clear the threshold in the
   same check, the smallest by [Pid.Set.compare] wins — a total order
   on candidates, so the outcome never depends on enumeration order
   (the seed picked whichever [Hashtbl] bucket came up first). *)
let resolve_replies ~f replies =
  let bump counts v =
    let rec go = function
      | [] -> [ (v, 1) ]
      | (w, n) :: rest ->
          if Pid.Set.equal w v then (w, n + 1) :: rest else (w, n) :: go rest
    in
    go counts
  in
  let counts = Pid.Map.fold (fun _ v acc -> bump acc v) replies [] in
  List.fold_left
    (fun best (v, n) ->
      if n <= f then best
      else
        match best with
        | Some w when Pid.Set.compare w v <= 0 -> best
        | Some _ | None -> Some v)
    None counts

let check_replies st =
  match st.sink with
  | Some _ -> ()
  | None -> (
      match resolve_replies ~f:st.f st.replies with
      | Some v -> st.sink <- Some v
      | None -> ())

let check_sink_primitive st =
  match st.sink with
  | Some _ -> ()
  | None -> (
      match Knowledge.sink_result st.knowledge with
      | Some v -> st.sink <- Some v
      | None -> ())

let honest ~self ~pd ~f ?metrics ?trace ~on_result () : Msg.t Engine.behavior =
  let st = make_state ~self ~pd ~f ?metrics ?trace () in
  let on_start ctx =
    Knowledge.start st.knowledge ~send:(sender ctx);
    Rbcast.broadcast st.rb ~send:(sender ctx)
  in
  let on_message ctx ~src (m : Msg.t) =
    (match m with
    | Know_request ->
        Knowledge.on_know_request st.knowledge ~send:(sender ctx) ~src
    | Know view ->
        bump st.c_know;
        Knowledge.on_know st.knowledge ~send:(sender ctx) ~src view;
        check_sink_primitive st
    | Get_sink { origin; path } -> (
        match
          Rbcast.on_get_sink st.rb ~send:(sender ctx) ~src ~origin ~path
        with
        | Some origin ->
            obs_event st ctx "rb_deliver" [ ("origin", Obs.Json.Int origin) ];
            st.pending <- Pid.Set.add origin st.pending
        | None -> ())
    | Sink_reply v ->
        bump st.c_replies;
        st.replies <- Pid.Map.add src v st.replies;
        check_replies st);
    report st ctx ~on_result;
    (* Requests can keep arriving after the first report; answer them
       too (Algorithm 3's send_sink loop never stops). *)
    flush_pending st ctx
  in
  { on_start; on_message; on_timer = (fun _ _ -> ()) }

let faulty ~self ~pd ~f fault : Msg.t Engine.behavior =
  match fault with
  | Silent -> Engine.idle_behavior
  | Sink_liar fake ->
      let st = make_state ~self ~pd ~f () in
      let lied_to = ref Pid.Set.empty in
      let lie_to ctx origin =
        if not (Pid.Set.mem origin !lied_to) then begin
          lied_to := Pid.Set.add origin !lied_to;
          sender ctx origin (Msg.Sink_reply fake)
        end
      in
      let on_start ctx =
        Knowledge.start st.knowledge ~send:(sender ctx);
        Rbcast.broadcast st.rb ~send:(sender ctx)
      in
      let on_message ctx ~src (m : Msg.t) =
        match m with
        | Know_request ->
            Knowledge.on_know_request st.knowledge ~send:(sender ctx) ~src
        | Know view ->
            Knowledge.on_know st.knowledge ~send:(sender ctx) ~src view
        | Get_sink { origin; path } ->
            (* Relay honestly to stay plausible, but lie eagerly to any
               origin whose request we merely glimpse. *)
            ignore
              (Rbcast.on_get_sink st.rb ~send:(sender ctx) ~src ~origin ~path);
            if not (Pid.equal origin self) then lie_to ctx origin
        | Sink_reply _ -> ()
      in
      { on_start; on_message; on_timer = (fun _ _ -> ()) }
  | Know_liar fakes ->
      (* Honest state machine whose outgoing Know messages are inflated
         with fabricated ids; the lie is uniform across receivers. *)
      let st = make_state ~self ~pd ~f () in
      let lying_sender ctx j (m : Msg.t) =
        let m =
          match m with
          | Know view -> Msg.Know (Pid.Set.union view fakes)
          | other -> other
        in
        Engine.send ctx j m
      in
      let on_start ctx =
        Knowledge.start st.knowledge ~send:(lying_sender ctx);
        Rbcast.broadcast st.rb ~send:(sender ctx)
      in
      let on_message ctx ~src (m : Msg.t) =
        match m with
        | Know_request ->
            Knowledge.on_know_request st.knowledge ~send:(lying_sender ctx) ~src
        | Know view ->
            Knowledge.on_know st.knowledge ~send:(lying_sender ctx) ~src view
        | Get_sink { origin; path } ->
            ignore
              (Rbcast.on_get_sink st.rb ~send:(sender ctx) ~src ~origin ~path)
        | Sink_reply _ -> ()
      in
      { on_start; on_message; on_timer = (fun _ _ -> ()) }

type run_result = {
  answers : Sink_oracle.answer Pid.Map.t;
  stats : Engine.stats;
}

let run_cfg ?(cfg = Run_config.default) ~graph ~f ~fault_of () =
  let metrics = cfg.Run_config.metrics and trace = cfg.Run_config.trace in
  let engine = Engine.create_cfg ~pp_msg:Msg.pp cfg in
  let answers = ref Pid.Map.empty in
  (* Correct processes yet to answer: each reports once. *)
  let unanswered = ref 0 in
  let on_result pid answer =
    answers := Pid.Map.add pid answer !answers;
    decr unanswered
  in
  Pid.Set.iter
    (fun i ->
      let pd = Digraph.succs graph i in
      match fault_of i with
      | Some fault ->
          Engine.add_node engine i (faulty ~self:i ~pd ~f fault)
      | None ->
          incr unanswered;
          Engine.add_node engine i
            (honest ~self:i ~pd ~f ?metrics ?trace ~on_result ()))
    (Digraph.vertices graph);
  let stats = Engine.run ~stop:(fun () -> !unanswered = 0) engine in
  { answers = !answers; stats }

(* lint: allow R2 — immutable constant; the type's only mutable capability (metrics/trace sinks) is None here *)
let default_run_config =
  { Run_config.default with delta = 10; max_time = 100_000 }
