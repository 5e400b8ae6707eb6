open Graphkit
open Cup

(* Drive Knowledge state machines by hand over an in-memory "network"
   that synchronously forwards every sent message, so the fixpoint logic
   is tested independently of the simulator. *)

type net = {
  machines : (Pid.t, Knowledge.t) Hashtbl.t;
  queue : (Pid.t * Pid.t * Msg.t) Queue.t;  (* src, dst, message *)
}

let make_net graph ~f pids =
  let net = { machines = Hashtbl.create 8; queue = Queue.create () } in
  List.iter
    (fun i ->
      Hashtbl.replace net.machines i
        (Knowledge.create ~self:i ~pd:(Digraph.succs graph i) ~f))
    pids;
  net

let sender net src dst m = Queue.add (src, dst, m) net.queue

let drain net =
  while not (Queue.is_empty net.queue) do
    let src, dst, m = Queue.pop net.queue in
    match Hashtbl.find_opt net.machines dst with
    | None -> () (* silent / faulty destination *)
    | Some k -> (
        let send = sender net dst in
        match m with
        | Msg.Know_request -> Knowledge.on_know_request k ~send ~src
        | Msg.Know view -> Knowledge.on_know k ~send ~src view
        | Msg.Get_sink _ | Msg.Sink_reply _ -> ())
  done

let start_all net =
  (* Knowledge joins are commutative and [drain] runs to quiescence,
     so start order cannot affect the fixpoint. lint: allow D1 *)
  Hashtbl.iter
    (fun i k -> Knowledge.start k ~send:(sender net i))
    net.machines;
  drain net

let machine net i = Hashtbl.find net.machines i

let test_sink_members_converge_fig1 () =
  let pids = Pid.Set.elements (Digraph.vertices Builtin.fig1) in
  let net = make_net Builtin.fig1 ~f:1 pids in
  start_all net;
  (* Every sink member of fig1 discovers exactly V_sink and declares. *)
  Pid.Set.iter
    (fun i ->
      match Knowledge.sink_result (machine net i) with
      | Some v ->
          Alcotest.(check bool)
            (Printf.sprintf "%d returns V_sink" i)
            true
            (Pid.Set.equal v Builtin.fig1_sink)
      | None -> Alcotest.failf "sink member %d did not terminate" i)
    Builtin.fig1_sink

let test_non_sink_members_never_declare () =
  let pids = Pid.Set.elements (Digraph.vertices Builtin.fig1) in
  let net = make_net Builtin.fig1 ~f:1 pids in
  start_all net;
  Pid.Set.iter
    (fun i ->
      Alcotest.(check bool)
        (Printf.sprintf "non-sink %d undeclared" i)
        true
        (Option.is_none (Knowledge.sink_result (machine net i))))
    (Pid.Set.diff (Digraph.vertices Builtin.fig1) Builtin.fig1_sink)

let test_non_sink_vouching_is_conservative () =
  let pids = Pid.Set.elements (Digraph.vertices Builtin.fig1) in
  let net = make_net Builtin.fig1 ~f:1 pids in
  start_all net;
  (* With f = 1 the voucher rule admits an id only on 2 distinct
     first-or-second-hand claims. In fig1, process 4 is claimed only by
     process 2, so process 1's knowledge deliberately stalls at
     {1,2,5}: under-approximating is what keeps the termination test
     safe against fabricated ids. Process 1 learns the sink through
     GET_SINK replies instead (Algorithm 3). *)
  Alcotest.(check bool) "1's vouched knowledge" true
    (Pid.Set.equal
       (Knowledge.known (machine net 1))
       (Pid.Set.of_list [ 1; 2; 5 ]))

let test_silent_faulty_sink_member () =
  (* Fig. 2 sink {1,2,3,4} is a complete digraph (k = 3 >= f+1 = 2
     correct vouchers for everyone): with 4 silent, the correct sink
     members still converge to the full sink and terminate. *)
  let pids = [ 1; 2; 3; 5; 6; 7 ] (* 4 is silent: no machine *) in
  let net = make_net Builtin.fig2 ~f:1 pids in
  start_all net;
  List.iter
    (fun i ->
      match Knowledge.sink_result (machine net i) with
      | Some v ->
          Alcotest.(check bool)
            (Printf.sprintf "%d converges to full sink despite silence" i)
            true
            (Pid.Set.equal v Builtin.fig2_sink)
      | None -> Alcotest.failf "sink member %d did not terminate" i)
    [ 1; 2; 3 ]

let test_fabricated_ids_filtered () =
  (* A liar claims a fantasy id 99; fewer than f+1 vouchers means no
     correct machine ever admits it. *)
  let pids = Pid.Set.elements (Digraph.vertices Builtin.fig2) in
  let net = make_net Builtin.fig2 ~f:1 pids in
  (* Seed the lie: 4 claims {99} along with a real view. *)
  start_all net;
  let lie = Pid.Set.add 99 Builtin.fig2_sink in
  (* Same argument as [start_all]: commutative joins drained to
     quiescence. lint: allow D1 *)
  Hashtbl.iter
    (fun i k ->
      if i <> 4 then
        Knowledge.on_know k ~send:(sender net i) ~src:4 lie)
    net.machines;
  drain net;
  Hashtbl.iter
    (fun i k ->
      Alcotest.(check bool)
        (Printf.sprintf "99 not known by %d" i)
        false
        (Pid.Set.mem 99 (Knowledge.known k)))
    net.machines

let prop_sink_detection_on_random_graphs =
  QCheck.Test.make ~count:25
    ~name:"SINK terminates exactly at sink members (fault-free)"
    QCheck.(pair (int_bound 500) (int_range 1 3))
    (fun (seed, f) ->
      let sink_size = (3 * f) + 2 in
      let g, sink =
        Generators.random_byzantine_safe ~seed ~f ~sink_size ~non_sink:4 ()
      in
      let pids = Pid.Set.elements (Digraph.vertices g) in
      let net = make_net g ~f pids in
      start_all net;
      List.for_all
        (fun i ->
          match Knowledge.sink_result (machine net i) with
          | Some v -> Pid.Set.mem i sink && Pid.Set.equal v sink
          | None -> not (Pid.Set.mem i sink))
        pids)

(* ---- message by message against the full-recount reference ---------- *)

(* What process 0 receives next. [Echo] reports the receiver's own
   [known] plus [extra] (equal or growing), [Shrink] the sender's last
   report minus one id (stale), [Know] any set (often incomparable).
   Senders range over 0..9, so some are unknown. *)
type op =
  | Req of Pid.t
  | Know of Pid.t * Pid.Set.t
  | Echo of Pid.t * Pid.Set.t
  | Shrink of Pid.t * Pid.t

let pp_op = function
  | Req j -> Printf.sprintf "%d: know_request" j
  | Know (j, v) -> Printf.sprintf "%d: know %s" j (Pid.Set.to_string v)
  | Echo (j, v) -> Printf.sprintf "%d: echo + %s" j (Pid.Set.to_string v)
  | Shrink (j, x) -> Printf.sprintf "%d: last report - %d" j x

let gen_op =
  QCheck.Gen.(
    let ids = map Pid.Set.of_list (list_size (int_bound 4) (int_bound 9)) in
    let* src = int_bound 9 in
    frequency
      [
        (1, return (Req src));
        (3, map (fun v -> Know (src, v)) ids);
        (4, map (fun v -> Echo (src, v)) (oneof [ return Pid.Set.empty; ids ]));
        (2, map (fun x -> Shrink (src, x)) (int_bound 9));
      ])

let arb_know_case =
  QCheck.make
    ~print:(fun (f, pd, ops) ->
      Printf.sprintf "f=%d pd=%s\n%s" f (Pid.Set.to_string pd)
        (String.concat "\n" (List.map pp_op ops)))
    QCheck.Gen.(
      triple (int_bound 3)
        (map Pid.Set.of_list (list_size (int_bound 6) (int_range 1 6)))
        (list_size (int_range 1 80) gen_op))

(* The receiver's sends for one step, in order, as the trace prints
   them; [known] and the verdict must agree after every step too. *)
let prop_matches_reference =
  QCheck.Test.make ~count:300
    ~name:"SINK: equal to full recounts, message by message" arb_know_case
    (fun (f, pd, ops) ->
      let k = Knowledge.create ~self:0 ~pd ~f
      and reference = Oracle.Knowledge.create ~self:0 ~pd ~f in
      let sent = ref [] in
      let send dst m = sent := (dst, Format.asprintf "%a" Msg.pp m) :: !sent in
      let sends step =
        sent := [];
        step ~send;
        List.rev !sent
      in
      let agree fast slow =
        sends fast = sends slow
        && Pid.Set.equal (Knowledge.known k) (Oracle.Knowledge.known reference)
        && Option.equal Pid.Set.equal (Knowledge.sink_result k)
             (Oracle.Knowledge.sink_result reference)
      in
      let last = Hashtbl.create 8 in
      let view_of = function
        | Know (_, v) -> v
        | Echo (_, extra) -> Pid.Set.union (Knowledge.known k) extra
        | Shrink (src, x) ->
            Pid.Set.remove x
              (Option.value ~default:Pid.Set.empty (Hashtbl.find_opt last src))
        | Req _ -> Pid.Set.empty
      in
      agree (Knowledge.start k) (Oracle.Knowledge.start reference)
      && List.for_all
           (function
             | Req src ->
                 agree
                   (Knowledge.on_know_request k ~src)
                   (Oracle.Knowledge.on_know_request reference ~src)
             | (Know (src, _) | Echo (src, _) | Shrink (src, _)) as op ->
                 let view = view_of op in
                 Hashtbl.replace last src view;
                 agree
                   (Knowledge.on_know k ~src view)
                   (Oracle.Knowledge.on_know reference ~src view))
           ops)

let suites =
  [
    ( "knowledge",
      [
        Alcotest.test_case "fig1 sink members converge" `Quick
          test_sink_members_converge_fig1;
        Alcotest.test_case "non-sink members never declare" `Quick
          test_non_sink_members_never_declare;
        Alcotest.test_case "non-sink vouching is conservative" `Quick
          test_non_sink_vouching_is_conservative;
        Alcotest.test_case "silent faulty sink member tolerated" `Quick
          test_silent_faulty_sink_member;
        Alcotest.test_case "fabricated ids filtered" `Quick
          test_fabricated_ids_filtered;
        QCheck_alcotest.to_alcotest prop_sink_detection_on_random_graphs;
        QCheck_alcotest.to_alcotest prop_matches_reference;
      ] );
  ]
