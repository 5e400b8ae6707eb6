(* [Scp.Runner.run_cfg] against [Oracle.Runner.run_cfg], whose node
   re-checks every tallied statement after every fresh envelope and
   deduplicates envelopes in an ordered set. Skipping a statement whose
   inputs have not grown since a check that answered false is exact,
   and a hashed dedup is a dedup: the two must send, trace and decide
   the same bytes on any system, schedule and adversary. *)

open Graphkit
open Scp

let v = Value.of_ints

type case = {
  label : string;
  system : Fbqs.Quorum.system;
  peers_of : Pid.t -> Pid.Set.t;
  faulty : Pid.Set.t;
  fault : Runner.fault option;
  nomination : Node.nomination_strategy;
  seed : int;
  gst : int;
}

let slice_peers system i = Fbqs.Slice.domain (Fbqs.Quorum.slices_of system i)

(* A t-of-n threshold system on pids 0 .. n-1, every member's peers
   all the others; [t] runs from a bare majority to unanimity, so some
   systems cannot decide once a member is faulty. *)
let threshold_case rng =
  let n = 4 + Random.State.int rng 4 in
  let t = (n / 2) + 1 + Random.State.int rng (n - (n / 2)) in
  let members = Pid.Set.of_range 0 (n - 1) in
  let system =
    Fbqs.Quorum.system_of_list
      (List.map
         (fun i -> (i, Fbqs.Slice.threshold ~members ~threshold:t))
         (Pid.Set.elements members))
  in
  ( Printf.sprintf "%d-of-%d threshold" t n,
    system,
    (fun _ -> members),
    Pid.Set.singleton (Random.State.int rng n) )

(* Algorithm 2's slices on an f = 1 graph from the sink detector
   oracle, with one random faulty process. *)
let algorithm2_case rng =
  let sink_size = 5 + Random.State.int rng 2 in
  let non_sink = Random.State.int rng 4 in
  let gseed = Random.State.int rng 1_000_000 in
  let graph, _ =
    Generators.random_byzantine_safe ~seed:gseed ~f:1 ~sink_size ~non_sink ()
  in
  let system = Cup.Slice_builder.system_via_oracle ~f:1 graph in
  ( Printf.sprintf "Algorithm 2, sink %d + %d, graph seed %d" sink_size
      non_sink gseed,
    system,
    slice_peers system,
    Generators.random_faulty_set ~seed:gseed ~f:1 graph )

let foreign = v [ 9001 ]

(* Fault kind 0 is none; 1-4 are the four [Runner.fault]s. *)
let fault_of_kind system faulty kind =
  let split j = j mod 2 = 0 in
  match kind with
  | 1 -> Some Runner.Silent
  | 2 ->
      let b = Ballot.make 1 foreign in
      Some
        (Runner.Accept_forger
           [ Statement.Nominate foreign; Statement.Prepare b;
             Statement.Commit b ])
  | 3 ->
      Some
        (Runner.Nomination_equivocator
           { split; value_a = v [ 9002 ]; value_b = v [ 9003 ] })
  | 4 ->
      let slices_a =
        Fbqs.Quorum.slices_of system (Pid.Set.min_elt faulty)
      in
      let slices_b =
        Fbqs.Slice.threshold
          ~members:(Fbqs.Quorum.participants system)
          ~threshold:1
      in
      Some
        (Runner.Slice_equivocator
           { split; slices_a; slices_b; value = v [ 9004 ] })
  | _ -> None

let case_of (kind, leader, shape, seed) =
  let rng = Random.State.make [| seed |] in
  let label, system, peers_of, faulty =
    if shape then algorithm2_case rng else threshold_case rng
  in
  let gst =
    [| 0; 50; 200; Random.State.int rng 300 |].(Random.State.int rng 4)
  in
  {
    label;
    system;
    peers_of;
    faulty;
    fault = fault_of_kind system faulty kind;
    nomination = (if leader then Node.Leader_priority 20 else Node.Echo_all);
    seed = Random.State.int rng 1_000_000;
    gst;
  }

let print_case (kind, leader, shape, seed) =
  let c = case_of (kind, leader, shape, seed) in
  Printf.sprintf "%s, faulty %s, fault kind %d, %s, run seed %d, gst %d"
    c.label
    (Pid.Set.to_string c.faulty)
    kind
    (if leader then "leader priority" else "echo all")
    c.seed c.gst

let traced run c =
  let buf = Buffer.create 65536 in
  let cfg =
    {
      Runner.run =
        {
          Simkit.Run_config.default with
          seed = c.seed;
          gst = c.gst;
          max_time = 1_500;
          trace = Some (Obs.Trace.to_buffer buf);
        };
      nomination = c.nomination;
    }
  in
  let fault_of i = if Pid.Set.mem i c.faulty then c.fault else None in
  let o =
    run ~cfg ~system:c.system ~peers_of:c.peers_of
      ~initial_value_of:(fun i -> v [ i ])
      ~fault_of ()
  in
  (o, Buffer.contents buf)

let same_decision (a : Node.decision) (b : Node.decision) =
  Value.equal a.value b.value && Ballot.equal a.ballot b.ballot
  && Int.equal a.time b.time

let same_stats (a : Simkit.Engine.stats) (b : Simkit.Engine.stats) =
  Int.equal a.messages_sent b.messages_sent
  && Int.equal a.messages_delivered b.messages_delivered
  && Int.equal a.messages_dropped b.messages_dropped
  && Int.equal a.timers_fired b.timers_fired
  && Int.equal a.end_time b.end_time
  && Int.equal a.queue_high_water b.queue_high_water

let run_both c =
  let o, trace =
    traced (fun ~cfg -> Runner.run_cfg ~cfg) c
  and o', trace' = traced (fun ~cfg -> Oracle.Runner.run_cfg ~cfg) c in
  String.equal trace trace'
  && Pid.Map.equal same_decision o.decisions o'.decisions
  && Bool.equal o.all_decided o'.all_decided
  && Bool.equal o.agreement o'.agreement
  && Bool.equal o.validity o'.validity
  && same_stats o.stats o'.stats

let prop_matches_oracle =
  QCheck.Test.make ~count:60
    ~name:"Scp.Runner = oracle: traces, decisions, verdicts, stats"
    QCheck.(
      make ~print:print_case
        Gen.(quad (int_bound 4) bool bool (int_bound 1_000_000)))
    (fun draw -> run_both (case_of draw))

(* Every fault kind under both nomination strategies on both system
   shapes, at fixed seeds, so no combination rests on the draw. *)
let test_every_fault_and_strategy () =
  List.iter
    (fun kind ->
      List.iter
        (fun leader ->
          List.iter
            (fun shape ->
              let draw = (kind, leader, shape, 17 + kind) in
              Alcotest.(check bool) (print_case draw) true
                (run_both (case_of draw)))
            [ false; true ])
        [ false; true ])
    [ 0; 1; 2; 3; 4 ]

let suites =
  [
    ( "scp-oracle",
      [
        Alcotest.test_case "every fault kind and nomination strategy" `Quick
          test_every_fault_and_strategy;
        QCheck_alcotest.to_alcotest prop_matches_oracle;
      ] );
  ]
