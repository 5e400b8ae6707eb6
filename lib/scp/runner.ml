open Graphkit
open Simkit

type fault =
  | Silent
  | Accept_forger of Statement.t list
  | Nomination_equivocator of {
      split : Pid.t -> bool;
      value_a : Value.t;
      value_b : Value.t;
    }
  | Slice_equivocator of {
      split : Pid.t -> bool;
      slices_a : Fbqs.Slice.t;
      slices_b : Fbqs.Slice.t;
      value : Value.t;
    }

type outcome = {
  decisions : Node.decision Pid.Map.t;
  all_decided : bool;
  agreement : bool;
  validity : bool;
  stats : Engine.stats;
}

let pp_outcome ppf o =
  Format.fprintf ppf
    "@[<v>all_decided=%b agreement=%b validity=%b msgs=%d time=%d@,%a@]"
    o.all_decided o.agreement o.validity o.stats.messages_sent
    o.stats.end_time
    (Pid.Map.pp Node.pp_decision)
    o.decisions

type cfg = { run : Run_config.t; nomination : Node.nomination_strategy }

(* lint: allow R2 — immutable constant; the type's only mutable capability (metrics/trace sinks) is None here *)
let default_cfg = { run = Run_config.default; nomination = Node.Echo_all }

let run_cfg ?(cfg = default_cfg) ~system ~peers_of ~initial_value_of ~fault_of
    () =
  let rc = cfg.run in
  let metrics = rc.Run_config.metrics and trace = rc.Run_config.trace in
  let engine = Engine.create_cfg ~pp_msg:Msg.pp rc in
  (* Each honest node counts its own view reuses and compiles into
     these; registered here so a run without one still reports them. *)
  Option.iter
    (fun reg ->
      ignore (Obs.Metrics.counter reg "fbqs_cache_hits");
      ignore (Obs.Metrics.counter reg "fbqs_cache_misses"))
    metrics;
  let trace_event ~time name fields =
    match trace with
    | None -> ()
    | Some sink -> Obs.Trace.emit sink ~time ~scope:"runner" ~name fields
  in
  trace_event ~time:0 "run_start"
    [
      ("seed", Obs.Json.Int rc.seed);
      ("max_time", Obs.Json.Int rc.max_time);
      ( "participants",
        Obs.Json.Int (Pid.Set.cardinal (Fbqs.Quorum.participants system)) );
    ];
  let decisions = ref Pid.Map.empty in
  let participants = Fbqs.Quorum.participants system in
  let correct = ref Pid.Set.empty in
  (* The stop condition runs after every event, so track the number of
     correct processes still undecided instead of re-scanning the
     decision map (O(1) per event instead of O(n log n)). *)
  let undecided = ref 0 in
  let on_decide pid d =
    if (not (Pid.Map.mem pid !decisions)) && Pid.Set.mem pid !correct then
      decr undecided;
    decisions := Pid.Map.add pid d !decisions
  in
  Pid.Set.iter
    (fun i ->
      match fault_of i with
      | Some Silent -> Engine.add_node engine i Node.silent
      | Some (Accept_forger stmts) ->
          Engine.add_node engine i
            (Node.accept_forger ~self:i
               ~slices:(Fbqs.Quorum.slices_of system i)
               ~peers:(peers_of i) stmts)
      | Some (Nomination_equivocator { split; value_a; value_b }) ->
          Engine.add_node engine i
            (Node.nomination_equivocator ~self:i
               ~slices:(Fbqs.Quorum.slices_of system i)
               ~split ~value_a ~value_b ~peers:(peers_of i))
      | Some (Slice_equivocator { split; slices_a; slices_b; value }) ->
          Engine.add_node engine i
            (Node.slice_equivocator ~self:i ~slices_a ~slices_b ~split ~value
               ~peers:(peers_of i))
      | None ->
          correct := Pid.Set.add i !correct;
          incr undecided;
          Engine.add_node engine i
            (Node.behavior ?metrics ?trace
               {
                 Node.self = i;
                 my_slices = Fbqs.Quorum.slices_of system i;
                 initial_peers = peers_of i;
                 initial_value = initial_value_of i;
                 nomination = cfg.nomination;
                 on_decide;
               }))
    participants;
  let all_decided () = !undecided = 0 in
  let stats = Engine.run ~stop:all_decided engine in
  let decisions = !decisions in
  let fault_injected i =
    match fault_of i with
    | Some (Nomination_equivocator { value_a; value_b; _ }) ->
        Value.union value_a value_b
    | Some (Accept_forger stmts) ->
        Value.combine
          (List.map
             (function
               | Statement.Prepare b | Statement.Commit b -> b.Ballot.value
               | Statement.Nominate v -> v)
             stmts)
    | Some (Slice_equivocator { value; _ }) -> value
    | Some Silent | None -> Value.empty
  in
  let proposed =
    (* Validity admits values proposed by any process, including the
       injections of Byzantine ones. *)
    Pid.Set.fold
      (fun i acc ->
        Value.union (Value.union acc (initial_value_of i)) (fault_injected i))
      participants Value.empty
  in
  let agreement, validity =
    Value.judge ~proposed
      (Pid.Map.fold
         (fun _ (d : Node.decision) acc -> d.value :: acc)
         decisions [])
  in
  trace_event ~time:stats.Engine.end_time "run_end"
    [
      ("end_time", Obs.Json.Int stats.Engine.end_time);
      ("all_decided", Obs.Json.Bool (all_decided ()));
      ("agreement", Obs.Json.Bool agreement);
      ("validity", Obs.Json.Bool validity);
    ];
  {
    decisions;
    all_decided = all_decided ();
    agreement;
    validity;
    stats;
  }
