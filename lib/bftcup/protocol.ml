open Graphkit
open Simkit

type outcome = {
  decisions : Scp.Value.t Pid.Map.t;
  all_decided : bool;
  agreement : bool;
  validity : bool;
  discovery_stats : Engine.stats;
  consensus_stats : Engine.stats;
}

(* Stage 2/3 behaviour for a non-sink member: poll the sink members of
   the discovered view and adopt a value confirmed by f+1 of them. *)
let requester ~self ~view ~f ~on_decide : Pbft.msg Engine.behavior =
  let replies = ref Pid.Map.empty in
  let decided = ref false in
  let on_start ctx =
    Pid.Set.iter
      (fun j -> Engine.send ctx j Pbft.Decision_req)
      (Pid.Set.remove self view)
  in
  let on_message ctx ~src m =
    match m with
    | Pbft.Decision v when not !decided ->
        if Pid.Set.mem src view then begin
          replies := Pid.Map.add src v !replies;
          let count =
            Pid.Map.fold
              (fun _ v' n -> if Scp.Value.equal v v' then n + 1 else n)
              !replies 0
          in
          if count >= f + 1 then begin
            decided := true;
            on_decide ~time:(Engine.now ctx) self v
          end
        end
    | _ -> ()
  in
  { Engine.idle_behavior with on_start; on_message }

(* The PBFT view-change timeout, in logical ticks. *)
let view_timeout = 60

let run ?(cfg = Run_config.default) ~graph ~f ~initial_value_of ~faulty () =
  let fault_of i =
    if Pid.Set.mem i faulty then Some Cup.Sink_protocol.Silent else None
  in
  (* Stage 1: knowledge acquisition. *)
  let discovery = Cup.Sink_protocol.run_cfg ~cfg ~graph ~f ~fault_of () in
  (* Stage 2 + 3: consensus among the sink, dissemination outwards, on
     a distinct stream of delivery delays. *)
  let consensus_cfg = Run_config.with_seed (cfg.seed + 1) cfg in
  let engine = Engine.create_cfg ~pp_msg:Pbft.pp_msg consensus_cfg in
  let trace_event ~time ~scope name fields =
    match cfg.trace with
    | None -> ()
    | Some sink -> Obs.Trace.emit sink ~time ~scope ~name fields
  in
  (* Only processes that completed discovery can take part; the faulty
     ones stay silent. *)
  let participants =
    Pid.Set.filter
      (fun i -> Pid.Set.mem i faulty || Pid.Map.mem i discovery.answers)
      (Digraph.vertices graph)
  in
  trace_event ~time:0 ~scope:"runner" "run_start"
    [
      ("seed", Obs.Json.Int consensus_cfg.seed);
      ("max_time", Obs.Json.Int consensus_cfg.max_time);
      ("participants", Obs.Json.Int (Pid.Set.cardinal participants));
    ];
  let decisions = ref Pid.Map.empty in
  let on_decide ~time pid v =
    decisions := Pid.Map.add pid v !decisions;
    trace_event ~time ~scope:"bftcup" "decide"
      [
        ("node", Obs.Json.Int pid);
        ("value", Obs.Json.String (Format.asprintf "%a" Scp.Value.pp v));
      ]
  in
  let correct = Pid.Set.diff (Digraph.vertices graph) faulty in
  let expected = Pid.Set.diff participants faulty in
  Pid.Set.iter
    (fun i ->
      if Pid.Set.mem i faulty then Engine.add_node engine i Pbft.silent
      else
        match Pid.Map.find_opt i discovery.answers with
        | None -> ()
        | Some (a : Cup.Sink_oracle.answer) ->
            if a.in_sink then
              Engine.add_node engine i
                (Pbft.behavior
                   {
                     Pbft.self = i;
                     members = a.view;
                     f;
                     initial_value = initial_value_of i;
                     view_timeout;
                     on_decide =
                       (fun pid (d : Pbft.decision) ->
                         on_decide ~time:d.time pid d.value);
                   })
            else
              Engine.add_node engine i
                (requester ~self:i ~view:a.view ~f ~on_decide))
    participants;
  let all_decided () =
    Pid.Set.for_all (fun i -> Pid.Map.mem i !decisions) expected
  in
  let consensus_stats = Engine.run ~stop:all_decided engine in
  let decisions = !decisions in
  let proposed =
    Pid.Set.fold
      (fun i acc -> Scp.Value.union acc (initial_value_of i))
      (Digraph.vertices graph) Scp.Value.empty
  in
  let agreement, validity =
    Scp.Value.judge ~proposed
      (Pid.Map.fold (fun _ v acc -> v :: acc) decisions [])
  in
  let all_decided = all_decided () && Pid.Set.equal expected correct in
  trace_event ~time:consensus_stats.end_time ~scope:"runner" "run_end"
    [
      ("end_time", Obs.Json.Int consensus_stats.end_time);
      ("all_decided", Obs.Json.Bool all_decided);
      ("agreement", Obs.Json.Bool agreement);
      ("validity", Obs.Json.Bool validity);
    ];
  {
    decisions;
    all_decided;
    agreement;
    validity;
    discovery_stats = discovery.stats;
    consensus_stats;
  }
