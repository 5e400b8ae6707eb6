open Graphkit
open Cup

let set = Pid.Set.of_list

(* Drive Rbcast instances by hand over a synchronous queue network. *)
type net = {
  machines : (Pid.t, Rbcast.t) Hashtbl.t;
  queue : (Pid.t * Pid.t * Msg.t) Queue.t;
  mutable delivered : (Pid.t * Pid.t) list;  (* (receiver, origin) *)
}

let make_net graph ~f pids =
  let net =
    { machines = Hashtbl.create 8; queue = Queue.create (); delivered = [] }
  in
  List.iter
    (fun i ->
      Hashtbl.replace net.machines i
        (Rbcast.create ~self:i ~neighbors:(Digraph.succs graph i) ~f ()))
    pids;
  net

let sender net src dst m = Queue.add (src, dst, m) net.queue

let drain net =
  while not (Queue.is_empty net.queue) do
    let src, dst, m = Queue.pop net.queue in
    match (Hashtbl.find_opt net.machines dst, m) with
    | Some rb, Msg.Get_sink { origin; path } -> (
        match
          Rbcast.on_get_sink rb ~send:(sender net dst) ~src ~origin ~path
        with
        | Some origin -> net.delivered <- (dst, origin) :: net.delivered
        | None -> ())
    | _ -> ()
  done

let broadcast net i =
  Rbcast.broadcast (Hashtbl.find net.machines i) ~send:(sender net i);
  drain net

let test_direct_neighbor_delivers () =
  let g = Digraph.of_edges [ (1, 2) ] in
  let net = make_net g ~f:2 [ 1; 2 ] in
  broadcast net 1;
  (* 2 hears 1 first-hand: authenticated channel, delivers regardless
     of f. *)
  Alcotest.(check bool) "delivered" true (List.mem (2, 1) net.delivered)

let test_f0_line_delivers () =
  let g = Digraph.of_edges [ (1, 2); (2, 3) ] in
  let net = make_net g ~f:0 [ 1; 2; 3 ] in
  broadcast net 1;
  Alcotest.(check bool) "one relayed path suffices at f=0" true
    (List.mem (3, 1) net.delivered)

let test_f1_single_path_insufficient () =
  let g = Digraph.of_edges [ (1, 2); (2, 3) ] in
  let net = make_net g ~f:1 [ 1; 2; 3 ] in
  broadcast net 1;
  Alcotest.(check bool) "one path is not enough at f=1" false
    (List.mem (3, 1) net.delivered)

let test_f1_two_disjoint_paths_deliver () =
  let g = Digraph.of_edges [ (1, 2); (1, 4); (2, 3); (4, 3) ] in
  let net = make_net g ~f:1 [ 1; 2; 3; 4 ] in
  broadcast net 1;
  Alcotest.(check bool) "two disjoint paths deliver" true
    (List.mem (3, 1) net.delivered)

let test_f1_shared_relay_insufficient () =
  (* Two paths through the same relay vertex 2 are not disjoint. *)
  let g = Digraph.of_edges [ (1, 2); (1, 4); (2, 3); (4, 2) ] in
  let net = make_net g ~f:1 [ 1; 2; 3; 4 ] in
  broadcast net 1;
  Alcotest.(check bool) "paths share vertex 2" false
    (List.mem (3, 1) net.delivered)

let test_forged_last_hop_rejected () =
  let g = Digraph.of_edges [ (1, 2) ] in
  let net = make_net g ~f:0 [ 1; 2 ] in
  let rb2 = Hashtbl.find net.machines 2 in
  (* 1 physically sends, but the path claims 9 was the last relayer. *)
  let r =
    Rbcast.on_get_sink rb2 ~send:(sender net 2) ~src:1 ~origin:9
      ~path:[ 9 ]
  in
  Alcotest.(check bool) "forged origin accepted only from origin" true
    (r = None)

let test_cyclic_path_rejected () =
  let g = Digraph.of_edges [ (1, 2) ] in
  let net = make_net g ~f:0 [ 1; 2 ] in
  let rb2 = Hashtbl.find net.machines 2 in
  let r =
    Rbcast.on_get_sink rb2 ~send:(sender net 2) ~src:1
      ~origin:3
      ~path:[ 3; 1; 3; 1 ]
  in
  Alcotest.(check bool) "duplicate vertices rejected" true (r = None)

let test_fig2_all_sink_members_deliver () =
  (* In a Byzantine-safe graph, GET_SINK from any process reaches every
     sink member with f+1 disjoint paths. *)
  let pids = Pid.Set.elements (Digraph.vertices Builtin.fig2) in
  let net = make_net Builtin.fig2 ~f:1 pids in
  broadcast net 5;
  Pid.Set.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "sink member %d delivered" s)
        true
        (List.mem (s, 5) net.delivered))
    Builtin.fig2_sink

let test_delivery_unique () =
  let pids = Pid.Set.elements (Digraph.vertices Builtin.fig2) in
  let net = make_net Builtin.fig2 ~f:1 pids in
  broadcast net 5;
  broadcast net 6;
  let count (r, o) =
    List.length (List.filter (fun x -> x = (r, o)) net.delivered)
  in
  List.iter
    (fun pair ->
      Alcotest.(check bool)
        "delivered at most once" true (count pair <= 1))
    [ (1, 5); (2, 5); (3, 5); (4, 5); (1, 6); (7, 5); (5, 6) ]

let prop_rb_agreement_on_random_graphs =
  QCheck.Test.make ~count:20
    ~name:"RB: all sink members deliver every origin's GET_SINK"
    QCheck.(pair (int_bound 300) (int_range 1 3))
    (fun (seed, f) ->
      let g, sink =
        Generators.random_byzantine_safe ~seed ~f ~sink_size:((3 * f) + 2)
          ~non_sink:3 ()
      in
      let pids = Pid.Set.elements (Digraph.vertices g) in
      let net = make_net g ~f pids in
      List.iter (fun i -> broadcast net i) pids;
      List.for_all
        (fun origin ->
          Pid.Set.for_all
            (fun s ->
              Pid.equal s origin || List.mem (s, origin) net.delivered)
            sink)
        pids)

(* ---- copy by copy against the exhaustive reference rule ------------- *)

(* A copy reaching process 0, the receiver: its physical sender, the
   origin it names, and its relay path. *)
type copy = { src : Pid.t; origin : Pid.t; path : Pid.t list }

let pp_copy c =
  Printf.sprintf "%d->0 origin=%d [%s]" c.src c.origin
    (String.concat "," (List.map string_of_int c.path))

(* Origins 1..3, relayers 1..7. Most copies are valid; the rest forge
   the last hop, repeat a vertex, pass through the receiver, or name
   another origin than the path's head. *)
let gen_copy =
  QCheck.Gen.(
    let* origin = int_range 1 3 in
    let* hops = frequency [ (1, return 0); (6, int_range 1 4) ] in
    let* order =
      shuffle_l (List.filter (( <> ) origin) [ 1; 2; 3; 4; 5; 6; 7 ])
    in
    let path = origin :: List.filteri (fun i _ -> i < hops) order in
    let last = List.nth path (List.length path - 1) in
    let* kind = int_bound 9 in
    let* other = int_bound 7 in
    return
      (match kind with
      | 6 -> { src = other; origin; path }
      | 7 ->
          let again = List.nth path (other mod List.length path) in
          { src = again; origin; path = path @ [ again ] }
      | 8 -> { src = last; origin; path = origin :: 0 :: List.tl path }
      | 9 -> { src = last; origin = 1 + (origin mod 3); path }
      | _ -> { src = last; origin; path }))

(* Up to 60 copies, a quarter of them repeats of an earlier one. *)
let gen_copies =
  QCheck.Gen.(
    let* n = int_range 1 60 in
    let rec go k acc =
      if k = 0 then return (List.rev acc)
      else
        let* repeat = int_bound 3 in
        let* c =
          match acc with
          | _ :: _ when repeat = 0 ->
              map (List.nth acc) (int_bound (List.length acc - 1))
          | _ -> gen_copy
        in
        go (k - 1) (c :: acc)
    in
    go n [])

let arb_rb_case =
  QCheck.make
    ~print:(fun (f, nbrs, copies) ->
      Printf.sprintf "f=%d neighbors=%s\n%s" f (Pid.Set.to_string nbrs)
        (String.concat "\n" (List.map pp_copy copies)))
    QCheck.Gen.(
      triple (int_bound 3)
        (map Pid.Set.of_list (list_size (int_bound 7) (int_bound 7)))
        gen_copies)

(* Feeds one copy and returns the answer with the sends, in order, as
   the trace prints them. *)
let feed on_get_sink rb c =
  let sent = ref [] in
  let send dst m = sent := (dst, Format.asprintf "%a" Msg.pp m) :: !sent in
  let r = on_get_sink rb ~send ~src:c.src ~origin:c.origin ~path:c.path in
  (r, List.rev !sent)

let prop_matches_reference =
  QCheck.Test.make ~count:300
    ~name:"RB: equal to the exhaustive rule, copy by copy" arb_rb_case
    (fun (f, neighbors, copies) ->
      let rb = Rbcast.create ~self:0 ~neighbors ~f ()
      and reference = Oracle.Rbcast.create ~self:0 ~neighbors ~f () in
      List.for_all
        (fun c ->
          feed Rbcast.on_get_sink rb c
          = feed Oracle.Rbcast.on_get_sink reference c)
        copies)

let suites =
  [
    ( "rbcast",
      [
        Alcotest.test_case "direct neighbor delivers" `Quick
          test_direct_neighbor_delivers;
        Alcotest.test_case "f=0 line" `Quick test_f0_line_delivers;
        Alcotest.test_case "f=1 single path insufficient" `Quick
          test_f1_single_path_insufficient;
        Alcotest.test_case "f=1 two disjoint paths" `Quick
          test_f1_two_disjoint_paths_deliver;
        Alcotest.test_case "f=1 shared relay insufficient" `Quick
          test_f1_shared_relay_insufficient;
        Alcotest.test_case "forged last hop rejected" `Quick
          test_forged_last_hop_rejected;
        Alcotest.test_case "cyclic path rejected" `Quick
          test_cyclic_path_rejected;
        Alcotest.test_case "fig2: sink members deliver" `Quick
          test_fig2_all_sink_members_deliver;
        Alcotest.test_case "delivery is unique" `Quick test_delivery_unique;
        QCheck_alcotest.to_alcotest prop_rb_agreement_on_random_graphs;
        QCheck_alcotest.to_alcotest prop_matches_reference;
      ] );
  ]
