(* Flat engine event queue: a monotone radix heap over rows of
   parallel arrays, zero allocation per event. The seed's generic event
   queue (the test oracle in [test/oracle]) allocates a variant payload
   plus an entry record per push; at sweep scale that is two heap
   blocks per simulated message, all garbage by the next pop. Here an
   event is a row across parallel arrays (time, kind code, two node
   ids, timer tag, message payload, and a link), and rows are never
   moved, only relinked.

   Bucket [b] holds the rows whose time differs from [last], the time
   of the last pop, first at bit [b - 1]; bucket 0 holds the rows at
   [last] itself. Every time in bucket [b] is below every time in a
   higher bucket, so the least pending time is bucket 0's, or else the
   minimum of the lowest non-empty bucket, which each bucket keeps.
   When bucket 0 runs dry, that minimum becomes [last] and its bucket
   is redistributed: each of its rows agrees with the new [last] above
   bit [b - 1], so it lands strictly lower, and a row moves at most 31
   times over its life. Pushes never go below [last] (the engine only
   schedules into the future), which is what keeps the buckets valid.

   Each bucket is a FIFO list. A push appends, and a redistribution
   empties one bucket into lower ones that were all empty, keeping its
   order; so every list stays in push order and equal times pop in
   push order, the queue's old (time, push sequence) order. Swapping
   the binary heap for this changed no schedule.

   Row slots are recycled through a free list threaded through the
   link array, so steady-state push/pop touches no allocator, and the
   arrays are sized by backlogs, never by the span of pending times.
   Pop is cursor-style: it parks the minimum event's row id and the
   accessors read that row until the next pop recycles it.

   Rows outlive the queue (DESIGN.md §20). [create] takes the six
   typed row arrays its domain has spare and [release] gives them
   back, so a domain that runs engine after engine grows them to its
   largest backlog once, not in every run: an array past 256 words
   goes straight into the major heap, and regrowing the rows was most
   of what a run allocated there. A domain keeps rows for at most
   [spare_bound] events. Nothing is cleared: a queue starts its
   buckets, free list and [alloc_top] fresh, and a row it hands out
   has every field written by its push ([push_row], [append],
   [push_deliver]) before any pop or [refill] reads it. The payload
   array stays per queue, since ['m] differs from queue to queue. *)

module Kind = struct
  type t = int

  let start = 0
  let timer = 1
  let deliver = 2
  let equal (a : t) (b : t) = Int.equal a b
end

(* Times fit 31 bits, so a time differs from [last] first at a bit
   below 31: buckets 0 .. 31. *)
let buckets = 32
let max_encodable_time = (1 lsl 31) - 1

type 'm t = {
  mutable times : int array;
  mutable links : int array;
      (* next row of the same bucket, or of the free list; -1 ends *)
  mutable kinds : int array;
  mutable na : int array; (* started pid / timer owner / deliver src *)
  mutable nb : int array; (* deliver dst *)
  mutable tags : string array; (* timer tag; "" elsewhere *)
  mutable payloads : 'm array;
      (* physically [[||]] until the first deliver is pushed: ['m] has
         no witness value before that, and a queue of starts and timers
         never needs the array at all. *)
  heads : int array; (* per bucket: first row, -1 when empty *)
  tails : int array; (* per bucket: last row *)
  mins : int array; (* per bucket: least time of its rows *)
  mutable last : int; (* time of the last pop; 0 before the first *)
  mutable size : int;
  mutable free_head : int; (* -1: none *)
  mutable alloc_top : int; (* rows below this have been handed out *)
  mutable cursor : int; (* row of the last popped event; -1 initially *)
  mutable hw : int;
}

(* A domain's spare rows, kept between queues. *)
type rows = {
  r_times : int array;
  r_links : int array;
  r_kinds : int array;
  r_na : int array;
  r_nb : int array;
  r_tags : string array;
}

(* lint: allow R2 — a zero-length array has no cell to write *)
let no_rows =
  {
    r_times = [||];
    r_links = [||];
    r_kinds = [||];
    r_na = [||];
    r_nb = [||];
    r_tags = [||];
  }

(* A domain keeps rows for at most 2^16 events (about 3 MB): a sweep's
   queues stay under 2^14, and a daemon that served one huge run does
   not hold its hundreds of MB afterwards. *)
let spare_bound = 1 lsl 16

(* lint: allow R2 — each domain reads and writes only its own cell, and no result depends on a stale row *)
let spare = Domain_local.make (fun () -> no_rows)

let create () =
  let r = Domain_local.get spare in
  Domain_local.set spare no_rows;
  {
    times = r.r_times;
    links = r.r_links;
    kinds = r.r_kinds;
    na = r.r_na;
    nb = r.r_nb;
    tags = r.r_tags;
    payloads = [||];
    heads = Array.make buckets (-1);
    tails = Array.make buckets (-1);
    mins = Array.make buckets 0;
    last = 0;
    size = 0;
    free_head = -1;
    alloc_top = 0;
    cursor = -1;
    hw = 0;
  }

let length t = t.size
let is_empty t = t.size = 0
let high_water t = t.hw

(* Live rows never exceed [size + 1] (the pending rows plus the
   cursor), and a new row is handed out only when the free list is
   empty, so the row arrays grow with the backlog alone. *)
let grow t =
  let ncap = max 16 (2 * Array.length t.times) in
  let grow a fill =
    let b = Array.make ncap fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  in
  t.times <- grow t.times 0;
  t.links <- grow t.links (-1);
  t.kinds <- grow t.kinds 0;
  t.na <- grow t.na 0;
  t.nb <- grow t.nb 0;
  t.tags <- grow t.tags "";
  if Array.length t.payloads > 0 then
    t.payloads <- grow t.payloads t.payloads.(0)

let alloc_row t =
  if t.free_head >= 0 then begin
    let r = t.free_head in
    t.free_head <- t.links.(r);
    r
  end
  else begin
    if t.alloc_top = Array.length t.times then grow t;
    let r = t.alloc_top in
    t.alloc_top <- r + 1;
    r
  end

(* The bit length of [x], for [0 <= x < 2^31]: the bucket of a time
   whose xor with [last] is [x]. *)
let bucket_of x =
  let x = ref x and b = ref 0 in
  if !x >= 0x10000 then begin
    b := 16;
    x := !x lsr 16
  end;
  if !x >= 0x100 then begin
    b := !b + 8;
    x := !x lsr 8
  end;
  if !x >= 0x10 then begin
    b := !b + 4;
    x := !x lsr 4
  end;
  if !x >= 0x4 then begin
    b := !b + 2;
    x := !x lsr 2
  end;
  if !x >= 0x2 then begin
    b := !b + 1;
    x := !x lsr 1
  end;
  !b + !x

let append t b r time =
  t.links.(r) <- -1;
  let tail = t.tails.(b) in
  if tail < 0 then begin
    t.heads.(b) <- r;
    t.mins.(b) <- time
  end
  else begin
    t.links.(tail) <- r;
    if time < t.mins.(b) then t.mins.(b) <- time
  end;
  t.tails.(b) <- r

let push_row t ~time kind a b tag =
  if time < 0 || time > max_encodable_time then
    invalid_arg "Simkit.Event_heap: time out of the 31-bit range";
  if time < t.last then
    invalid_arg "Simkit.Event_heap: time before the last pop";
  let r = alloc_row t in
  t.times.(r) <- time;
  t.kinds.(r) <- kind;
  t.na.(r) <- a;
  t.nb.(r) <- b;
  t.tags.(r) <- tag;
  append t (bucket_of (time lxor t.last)) r time;
  t.size <- t.size + 1;
  if t.size > t.hw then t.hw <- t.size;
  r

(* Start and timer rows carry no payload, so the row index has no
   further use at these call sites — deliver is the one push that
   needs it back (to attach the payload). *)
let push_start t ~time pid =
  let (_ : int) = push_row t ~time Kind.start pid (-1) "" in
  ()

let push_timer t ~time ~owner tag =
  let (_ : int) = push_row t ~time Kind.timer owner (-1) tag in
  ()

let push_deliver t ~time ~src ~dst payload =
  let r = push_row t ~time Kind.deliver src dst "" in
  if Array.length t.payloads = 0 then
    (* First payload ever: materialize the array, using it as its own
       fill value (every slot of ['m] needs a witness; slots of other
       kinds are never read). *)
    t.payloads <- Array.make (Array.length t.times) payload
  else t.payloads.(r) <- payload

(* Bucket 0 is empty and some row is pending: advance [last] to the
   least pending time and redistribute the bucket holding it. *)
let refill t =
  let i = ref 1 in
  while t.heads.(!i) < 0 do
    incr i
  done;
  let i = !i in
  t.last <- t.mins.(i);
  let r = ref t.heads.(i) in
  t.heads.(i) <- -1;
  t.tails.(i) <- -1;
  while !r >= 0 do
    let row = !r in
    r := t.links.(row);
    let time = t.times.(row) in
    append t (bucket_of (time lxor t.last)) row time
  done

let pop t =
  if t.size = 0 then false
  else begin
    (* Recycle the previous cursor row onto the free list. The new
       cursor row stays off it until the pop after this one, so the
       accessors survive interleaved pushes. *)
    if t.cursor >= 0 then begin
      t.links.(t.cursor) <- t.free_head;
      t.free_head <- t.cursor
    end;
    if t.heads.(0) < 0 then refill t;
    let r = t.heads.(0) in
    let next = t.links.(r) in
    t.heads.(0) <- next;
    if next < 0 then t.tails.(0) <- -1;
    t.size <- t.size - 1;
    t.cursor <- r;
    true
  end

let time t = t.times.(t.cursor)
let kind t = t.kinds.(t.cursor)
let node_a t = t.na.(t.cursor)
let node_b t = t.nb.(t.cursor)
let tag t = t.tags.(t.cursor)
let payload t = t.payloads.(t.cursor)

(* Hands the rows to the domain's spare, unless they are past the
   bound or the spare already holds longer ones, and leaves the queue
   empty with no storage of its own: a later push grows fresh rows, so
   it cannot write into rows another queue now owns. *)
let release t =
  let cap = Array.length t.times in
  if
    cap <= spare_bound
    && cap > Array.length (Domain_local.get spare).r_times
  then
    Domain_local.set spare
      {
        r_times = t.times;
        r_links = t.links;
        r_kinds = t.kinds;
        r_na = t.na;
        r_nb = t.nb;
        r_tags = t.tags;
      };
  t.times <- [||];
  t.links <- [||];
  t.kinds <- [||];
  t.na <- [||];
  t.nb <- [||];
  t.tags <- [||];
  t.payloads <- [||];
  Array.fill t.heads 0 buckets (-1);
  Array.fill t.tails 0 buckets (-1);
  t.size <- 0;
  t.free_head <- -1;
  t.alloc_top <- 0;
  t.cursor <- -1
