(* Event_heap is the engine's internal queue: its whole contract is
   "same (time, push-sequence) order as Event_queue, no allocation,
   no push before the last pop". These tests pin the ordering (FIFO
   tie-break included) against the oracle queue on random monotone
   interleavings, the cursor-accessor lifetime across interleaved
   pushes, payload routing through row recycling, the 31-bit and
   monotone time guards, and memory that does not grow with the span
   of pending times. *)

module H = Simkit.Event_heap

let drain h =
  let rec go acc = if H.pop h then go (H.time h :: acc) else List.rev acc in
  go []

let test_time_order () =
  let h = H.create () in
  List.iter (fun t -> H.push_start h ~time:t t) [ 5; 1; 9; 3; 7; 0; 2 ];
  Alcotest.(check (list int))
    "pops come out time-sorted" [ 0; 1; 2; 3; 5; 7; 9 ] (drain h);
  Alcotest.(check bool) "empty after drain" true (H.is_empty h)

let test_fifo_tie_break () =
  (* Equal times resolve by push order — the property golden traces
     depend on. Node ids record the push order. *)
  let h = H.create () in
  List.iter (fun i -> H.push_start h ~time:42 i) [ 3; 1; 4; 1; 5 ];
  let rec order acc = if H.pop h then order (H.node_a h :: acc) else acc in
  Alcotest.(check (list int))
    "same-time events pop in push order" [ 3; 1; 4; 1; 5 ]
    (List.rev (order []))

let test_kinds_and_fields () =
  let h = H.create () in
  H.push_deliver h ~time:2 ~src:7 ~dst:9 "payload";
  H.push_timer h ~time:1 ~owner:4 "tick";
  H.push_start h ~time:0 3;
  Alcotest.(check bool) "pop start" true (H.pop h);
  Alcotest.(check bool) "kind start" true (H.Kind.equal (H.kind h) H.Kind.start);
  Alcotest.(check int) "started pid" 3 (H.node_a h);
  Alcotest.(check bool) "pop timer" true (H.pop h);
  Alcotest.(check bool) "kind timer" true (H.Kind.equal (H.kind h) H.Kind.timer);
  Alcotest.(check int) "timer owner" 4 (H.node_a h);
  Alcotest.(check string) "timer tag" "tick" (H.tag h);
  Alcotest.(check bool) "pop deliver" true (H.pop h);
  Alcotest.(check bool)
    "kind deliver" true
    (H.Kind.equal (H.kind h) H.Kind.deliver);
  Alcotest.(check int) "src" 7 (H.node_a h);
  Alcotest.(check int) "dst" 9 (H.node_b h);
  Alcotest.(check string) "payload" "payload" (H.payload h);
  Alcotest.(check bool) "exhausted" false (H.pop h)

let test_cursor_survives_pushes () =
  (* The engine reads the popped event while handlers push more events:
     the cursor row must stay valid until the next pop. *)
  let h = H.create () in
  H.push_deliver h ~time:1 ~src:10 ~dst:20 "first";
  Alcotest.(check bool) "pop" true (H.pop h);
  (* Push a burst while the cursor is parked — enough to force a grow. *)
  for i = 0 to 63 do
    H.push_deliver h ~time:(2 + i) ~src:i ~dst:i ("later" ^ string_of_int i)
  done;
  Alcotest.(check string) "cursor payload intact" "first" (H.payload h);
  Alcotest.(check int) "cursor src intact" 10 (H.node_a h);
  Alcotest.(check bool) "next pop" true (H.pop h);
  Alcotest.(check string) "recycled rows carry their own payloads" "later0"
    (H.payload h)

let test_interleaved_recycling () =
  (* Steady-state push/pop cycles rows through the free list; order and
     payloads must be unaffected. *)
  let h = H.create () in
  let out = ref [] in
  for round = 0 to 99 do
    H.push_deliver h ~time:round ~src:round ~dst:0 round;
    if round mod 3 <> 0 then
      if H.pop h then out := H.payload h :: !out
  done;
  while H.pop h do
    out := H.payload h :: !out
  done;
  Alcotest.(check (list int))
    "payloads pop in time order across recycling"
    (List.init 100 Fun.id) (List.rev !out);
  Alcotest.(check int) "high water tracks the backlog" 34 (H.high_water h)

let test_time_range_guard () =
  let h = H.create () in
  H.push_start h ~time:((1 lsl 31) - 1) 0;
  Alcotest.(check bool) "max encodable time accepted" true (H.pop h);
  List.iter
    (fun bad ->
      let raised =
        try
          H.push_start h ~time:bad 0;
          false
        with Invalid_argument _ -> true
      in
      Alcotest.(check bool)
        (Printf.sprintf "time %d rejected" bad)
        true raised)
    [ -1; 1 lsl 31 ]

let test_monotone_guard () =
  let h = H.create () in
  H.push_start h ~time:5 0;
  H.push_start h ~time:9 1;
  Alcotest.(check bool) "pop" true (H.pop h);
  let raised =
    try
      H.push_start h ~time:4 2;
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "a push before the last pop is refused" true raised;
  H.push_start h ~time:5 3;
  Alcotest.(check (list int)) "the tick just popped is still open" [ 5; 9 ]
    (drain h)

let max_time = (1 lsl 31) - 1

let test_wide_span_small () =
  (* Memory follows the pending events, not their times: a queue
     sized by the span would need 2^31 slots here. *)
  let h = H.create () in
  let before = Gc.allocated_bytes () in
  H.push_deliver h ~time:0 ~src:1 ~dst:2 "first";
  H.push_deliver h ~time:max_time ~src:3 ~dst:4 "last";
  let first = H.pop h && H.time h = 0 && String.equal (H.payload h) "first" in
  let last =
    H.pop h && H.time h = max_time && String.equal (H.payload h) "last"
  in
  let allocated = Gc.allocated_bytes () -. before in
  Alcotest.(check bool) "both pop in order" true (first && last);
  Alcotest.(check bool)
    (Printf.sprintf "allocated %.0f bytes, under 8 KiB" allocated)
    true (allocated < 8192.)

let test_release_hands_rows_on () =
  (* A released queue's rows serve the next queue created on this
     domain, and pushes on the released queue land on rows of its own,
     never on the rows it gave away. *)
  let old = H.create () in
  for i = 0 to 99 do
    H.push_timer old ~time:i ~owner:i "old"
  done;
  Alcotest.(check bool) "pop" true (H.pop old);
  H.release old;
  Alcotest.(check int) "a released queue is empty" 0 (H.length old);
  Alcotest.(check int) "and keeps its high water" 100 (H.high_water old);
  let fresh = H.create () in
  for i = 0 to 9 do
    H.push_deliver fresh ~time:i ~src:i ~dst:(i + 1) (string_of_int i)
  done;
  for i = 0 to 99 do
    H.push_timer old ~time:(100 + i) ~owner:7 "stale"
  done;
  let row t a b tag payload =
    Printf.sprintf "%d %d %d %S %S" t a b tag payload
  in
  let rec rows acc =
    if H.pop fresh then
      rows
        (row (H.time fresh) (H.node_a fresh) (H.node_b fresh) (H.tag fresh)
           (H.payload fresh)
        :: acc)
    else List.rev acc
  in
  Alcotest.(check (list string))
    "the new queue pops what it was given"
    (List.init 10 (fun i -> row i i (i + 1) "" (string_of_int i)))
    (rows []);
  Alcotest.(check int) "the stale pushes stay in the released queue" 100
    (H.length old)

(* Random monotone interleavings against Oracle.Event_queue. A push's
   time is drawn relative to the last pop: at it (many equal times), a
   few ticks past it (the engine's shape), up to a thousand past it,
   or anywhere up to 2^31 - 1. Each draw releases its queue when it
   ends, so the next draw's queue starts on the same rows, every slot
   still holding an earlier draw's times, links, kinds and tags. *)
type op = Pop | Push of int * int * int (* kind, time class, draw *)

let time_of ~last cls draw =
  if cls <= 3 then last
  else if cls <= 6 then min max_time (last + 1 + (draw mod 5))
  else if cls = 7 then min max_time (last + (draw mod 1000))
  else last + (draw mod (max_time - last + 1))

let gen_ops =
  QCheck.Gen.(
    list_size (int_range 0 300)
      (frequency
         [
           (2, return Pop);
           ( 3,
             map3
               (fun k c d -> Push (k, c, d))
               (int_bound 2) (int_bound 9) (int_bound (1 lsl 30)) );
         ]))

let print_ops ops =
  String.concat " "
    (List.map
       (function
         | Pop -> "pop"
         | Push (k, c, d) -> Printf.sprintf "push(%d,%d,%d)" k c d)
       ops)

(* (time, kind, node_a, node_b, tag, payload) of each pop. *)
let replay ops =
  let h = H.create () and q = Oracle.Event_queue.create () in
  let last = ref 0 and id = ref 0 and lengths_agree = ref true in
  let from_heap = ref [] and from_oracle = ref [] in
  let pop_both () =
    if H.pop h then begin
      last := H.time h;
      let k = (H.kind h :> int) in
      let payload =
        if H.Kind.equal (H.kind h) H.Kind.deliver then H.payload h else -1
      in
      from_heap :=
        (H.time h, k, H.node_a h, H.node_b h, H.tag h, payload) :: !from_heap
    end;
    match Oracle.Event_queue.pop q with
    | Some (time, (k, a, b, tag, payload)) ->
        from_oracle := (time, k, a, b, tag, payload) :: !from_oracle
    | None -> ()
  in
  List.iter
    (fun op ->
      (match op with
      | Pop -> pop_both ()
      | Push (k, cls, draw) ->
          incr id;
          let time = time_of ~last:!last cls draw in
          let a = !id mod 7 and b = !id mod 5 in
          let ev =
            if k = 0 then (
              H.push_start h ~time a;
              ((H.Kind.start :> int), a, -1, "", -1))
            else if k = 1 then (
              let tag = Printf.sprintf "t%d" !id in
              H.push_timer h ~time ~owner:a tag;
              ((H.Kind.timer :> int), a, -1, tag, -1))
            else (
              H.push_deliver h ~time ~src:a ~dst:b !id;
              ((H.Kind.deliver :> int), a, b, "", !id))
          in
          Oracle.Event_queue.push q ~time ev);
      if H.length h <> Oracle.Event_queue.length q then lengths_agree := false)
    ops;
  while not (H.is_empty h && Oracle.Event_queue.is_empty q) do
    pop_both ()
  done;
  H.release h;
  !lengths_agree && List.rev !from_heap = List.rev !from_oracle

let prop_matches_oracle =
  QCheck.Test.make ~count:500
    ~name:"pops equal Oracle.Event_queue's on monotone interleavings"
    (QCheck.make ~print:print_ops gen_ops)
    replay

let suites =
  [
    ( "event-heap",
      [
        Alcotest.test_case "time ordering" `Quick test_time_order;
        Alcotest.test_case "FIFO tie-break at equal times" `Quick
          test_fifo_tie_break;
        Alcotest.test_case "kinds and per-kind fields" `Quick
          test_kinds_and_fields;
        Alcotest.test_case "cursor survives interleaved pushes" `Quick
          test_cursor_survives_pushes;
        Alcotest.test_case "row recycling keeps order and payloads" `Quick
          test_interleaved_recycling;
        Alcotest.test_case "31-bit time guard" `Quick test_time_range_guard;
        Alcotest.test_case "no push before the last pop" `Quick
          test_monotone_guard;
        Alcotest.test_case "times 0 and 2^31-1 allocate O(1)" `Quick
          test_wide_span_small;
        Alcotest.test_case "released rows serve the next queue only" `Quick
          test_release_hands_rows_on;
        QCheck_alcotest.to_alcotest prop_matches_oracle;
      ] );
  ]
