module Event_queue = Oracle.Event_queue

let test_ordering () =
  let q = Event_queue.create () in
  Event_queue.push q ~time:5 "c";
  Event_queue.push q ~time:1 "a";
  Event_queue.push q ~time:3 "b";
  Alcotest.(check (option int)) "peek" (Some 1) (Event_queue.peek_time q);
  let order = List.init 3 (fun _ -> Event_queue.pop q) in
  Alcotest.(check (list (option (pair int string))))
    "sorted"
    [ Some (1, "a"); Some (3, "b"); Some (5, "c") ]
    order;
  Alcotest.(check bool) "drained" true (Event_queue.is_empty q)

let test_fifo_ties () =
  let q = Event_queue.create () in
  List.iter (fun s -> Event_queue.push q ~time:7 s) [ "x"; "y"; "z" ];
  let pops =
    List.filter_map (fun _ -> Event_queue.pop q) [ (); (); () ]
  in
  Alcotest.(check (list (pair int string)))
    "insertion order preserved at equal times"
    [ (7, "x"); (7, "y"); (7, "z") ]
    pops

let test_interleaved () =
  let q = Event_queue.create () in
  Event_queue.push q ~time:2 1;
  (match Event_queue.pop q with
  | Some (2, 1) -> ()
  | _ -> Alcotest.fail "first pop");
  Event_queue.push q ~time:1 2;
  Event_queue.push q ~time:3 3;
  Alcotest.(check int) "length" 2 (Event_queue.length q);
  match (Event_queue.pop q, Event_queue.pop q, Event_queue.pop q) with
  | Some (1, 2), Some (3, 3), None -> ()
  | _ -> Alcotest.fail "interleaved pops"

let prop_pops_sorted =
  QCheck.Test.make ~count:300 ~name:"pops come out time-sorted"
    QCheck.(list (int_bound 1000))
    (fun times ->
      let q = Event_queue.create () in
      List.iteri (fun i t -> Event_queue.push q ~time:t i) times;
      let rec drain acc =
        match Event_queue.pop q with
        | None -> List.rev acc
        | Some (t, _) -> drain (t :: acc)
      in
      let out = drain [] in
      out = List.sort compare times)

let prop_stable_for_equal_times =
  QCheck.Test.make ~count:200 ~name:"equal times keep insertion order"
    QCheck.(int_range 1 50)
    (fun n ->
      let q = Event_queue.create () in
      for i = 0 to n - 1 do
        Event_queue.push q ~time:0 i
      done;
      let rec drain acc =
        match Event_queue.pop q with
        | None -> List.rev acc
        | Some (_, v) -> drain (v :: acc)
      in
      drain [] = List.init n Fun.id)

let suites =
  [
    ( "event_queue",
      [
        Alcotest.test_case "ordering" `Quick test_ordering;
        Alcotest.test_case "FIFO on ties" `Quick test_fifo_ties;
        Alcotest.test_case "interleaved push/pop" `Quick test_interleaved;
        QCheck_alcotest.to_alcotest prop_pops_sorted;
        QCheck_alcotest.to_alcotest prop_stable_for_equal_times;
      ] );
  ]
