(* Flat engine event heap: structure-of-arrays, zero allocation per
   event. The seed's generic event queue (the test oracle in
   [test/oracle]) allocates a variant payload plus an entry record
   per push; at sweep scale that is two heap blocks per simulated
   message, all garbage by the next pop. Here an event is a row
   across parallel arrays — packed ordering key, kind code, two node
   ids, timer tag, message payload — and the binary heap orders
   small int row ids, so a sift step moves one int, never a row.

   Ordering matches that queue exactly: (time, push sequence),
   packed into one int key [(time lsl 31) lor seq] so heap
   comparisons are single int compares. Times must fit 31 bits —
   simulation clocks are bounded by [max_time] (~10^6 in every
   config) — and a run would need 2^31 pushes to exhaust the
   sequence space.



   Row slots are recycled through an intrusive free list threaded
   through the key array (a freed row's key field holds the next free
   row id), so steady-state push/pop touches no allocator at all. Pop
   is cursor-style: it parks the minimum event's row id and the
   accessors read that row until the next pop recycles it. *)

module Kind = struct
  type t = int

  let start = 0
  let timer = 1
  let deliver = 2
  let equal (a : t) (b : t) = Int.equal a b
end

type 'm t = {
  mutable heap : int array; (* row ids, min-heap by [keys.(row)] *)
  mutable keys : int array; (* per-row key; free-list next when freed *)
  mutable kinds : int array;
  mutable na : int array; (* started pid / timer owner / deliver src *)
  mutable nb : int array; (* deliver dst *)
  mutable tags : string array; (* timer tag; "" elsewhere *)
  mutable payloads : 'm array;
      (* physically [[||]] until the first deliver is pushed: ['m] has
         no witness value before that, and a heap of starts and timers
         never needs the array at all. *)
  mutable size : int;
  mutable free_head : int; (* -1: none *)
  mutable alloc_top : int; (* rows below this have been handed out *)
  mutable cursor : int; (* row of the last popped event; -1 initially *)
  mutable seq : int;
  mutable hw : int;
}

let seq_bits = 31
let max_encodable_time = (1 lsl seq_bits) - 1

let create () =
  {
    heap = [||];
    keys = [||];
    kinds = [||];
    na = [||];
    nb = [||];
    tags = [||];
    payloads = [||];
    size = 0;
    free_head = -1;
    alloc_top = 0;
    cursor = -1;
    seq = 0;
    hw = 0;
  }

let length t = t.size
let is_empty t = t.size = 0
let high_water t = t.hw

(* Live rows never exceed [size + 1] (the heap plus the cursor), so
   growing every array in lockstep when either the heap or the row
   store runs out keeps one invariant: all arrays share a capacity
   strictly greater than [max size alloc_top]. *)
let ensure_capacity t =
  let cap = Array.length t.heap in
  if t.size + 1 >= cap || t.alloc_top + 1 >= cap then begin
    let ncap = max 16 (2 * cap) in
    let grow a fill =
      let b = Array.make ncap fill in
      Array.blit a 0 b 0 (Array.length a);
      b
    in
    t.heap <- grow t.heap 0;
    t.keys <- grow t.keys 0;
    t.kinds <- grow t.kinds 0;
    t.na <- grow t.na 0;
    t.nb <- grow t.nb 0;
    t.tags <- grow t.tags "";
    if Array.length t.payloads > 0 then
      t.payloads <- grow t.payloads t.payloads.(0)
  end

let alloc_row t =
  if t.free_head >= 0 then begin
    let r = t.free_head in
    t.free_head <- t.keys.(r);
    r
  end
  else begin
    let r = t.alloc_top in
    t.alloc_top <- r + 1;
    r
  end

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if t.keys.(t.heap.(i)) < t.keys.(t.heap.(parent)) then begin
      let tmp = t.heap.(i) in
      t.heap.(i) <- t.heap.(parent);
      t.heap.(parent) <- tmp;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 in
  if l < t.size then begin
    let r = l + 1 in
    let smallest =
      if r < t.size && t.keys.(t.heap.(r)) < t.keys.(t.heap.(l)) then r else l
    in
    if t.keys.(t.heap.(smallest)) < t.keys.(t.heap.(i)) then begin
      let tmp = t.heap.(i) in
      t.heap.(i) <- t.heap.(smallest);
      t.heap.(smallest) <- tmp;
      sift_down t smallest
    end
  end

let push_row t ~time kind a b tag =
  if time < 0 || time > max_encodable_time then
    invalid_arg "Simkit.Event_heap: time out of the 31-bit key range";
  ensure_capacity t;
  let r = alloc_row t in
  t.keys.(r) <- (time lsl seq_bits) lor t.seq;
  t.seq <- t.seq + 1;
  t.kinds.(r) <- kind;
  t.na.(r) <- a;
  t.nb.(r) <- b;
  t.tags.(r) <- tag;
  t.heap.(t.size) <- r;
  t.size <- t.size + 1;
  if t.size > t.hw then t.hw <- t.size;
  sift_up t (t.size - 1);
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
    t.payloads <- Array.make (Array.length t.keys) payload
  else t.payloads.(r) <- payload

let pop t =
  if t.size = 0 then false
  else begin
    (* Recycle the previous cursor row: its key field becomes the
       free-list link. The new cursor row stays out of the free list
       until the pop after this one, so the accessors survive
       interleaved pushes. *)
    if t.cursor >= 0 then begin
      t.keys.(t.cursor) <- t.free_head;
      t.free_head <- t.cursor
    end;
    let r = t.heap.(0) in
    let last = t.size - 1 in
    t.heap.(0) <- t.heap.(last);
    t.size <- last;
    sift_down t 0;
    t.cursor <- r;
    true
  end

let time t = t.keys.(t.cursor) asr seq_bits
let kind t = t.kinds.(t.cursor)
let node_a t = t.na.(t.cursor)
let node_b t = t.nb.(t.cursor)
let tag t = t.tags.(t.cursor)
let payload t = t.payloads.(t.cursor)
