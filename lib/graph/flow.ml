(* Array-based Dinic. Arcs live in flat growable arrays — arc [a] is
   paired with its reverse [a lxor 1] — and [max_flow] counting-sorts
   them into a CSR adjacency before the first phase, so the hot loops
   (level BFS, blocking-flow DFS) touch nothing but int arrays. The
   sort is stable, so per-vertex arc order is insertion order: exactly
   the order the seed's append-based adjacency lists iterate in, which
   keeps the chosen flow (and hence [min_cut_side]) identical to the
   seed implementation, the test oracle in [test/oracle]. *)

type t = {
  n : int;
  source : int;
  sink : int;
  mutable arc_tail : int array;
  mutable arc_dst : int array;
  mutable arc_cap : int array;
  mutable n_arcs : int;
  mutable off : int array;  (** CSR offsets, built by [compile] *)
  mutable arcs : int array;  (** arc ids grouped by tail, stable *)
  mutable level : int array;
  mutable iter : int array;  (** per-vertex cursor into [arcs] *)
}

let create ~n ~source ~sink =
  {
    n;
    source;
    sink;
    arc_tail = Array.make 16 0;
    arc_dst = Array.make 16 0;
    arc_cap = Array.make 16 0;
    n_arcs = 0;
    off = [||];
    arcs = [||];
    level = [||];
    iter = [||];
  }

let ensure net wanted =
  let cap = Array.length net.arc_tail in
  if wanted > cap then begin
    let ncap = max (2 * cap) wanted in
    let grow a =
      let b = Array.make ncap 0 in
      Array.blit a 0 b 0 net.n_arcs;
      b
    in
    net.arc_tail <- grow net.arc_tail;
    net.arc_dst <- grow net.arc_dst;
    net.arc_cap <- grow net.arc_cap
  end

let add_edge net u v cap =
  ensure net (net.n_arcs + 2);
  let a = net.n_arcs in
  net.arc_tail.(a) <- u;
  net.arc_dst.(a) <- v;
  net.arc_cap.(a) <- cap;
  net.arc_tail.(a + 1) <- v;
  net.arc_dst.(a + 1) <- u;
  net.arc_cap.(a + 1) <- 0;
  net.n_arcs <- a + 2

let compile net =
  let m = net.n_arcs in
  let off = Array.make (net.n + 1) 0 in
  for a = 0 to m - 1 do
    let u = net.arc_tail.(a) in
    off.(u + 1) <- off.(u + 1) + 1
  done;
  for v = 1 to net.n do
    off.(v) <- off.(v) + off.(v - 1)
  done;
  let arcs = Array.make m 0 in
  let cursor = Array.copy off in
  for a = 0 to m - 1 do
    let u = net.arc_tail.(a) in
    arcs.(cursor.(u)) <- a;
    cursor.(u) <- cursor.(u) + 1
  done;
  net.off <- off;
  net.arcs <- arcs

let bfs net =
  let level = Array.make net.n (-1) in
  let queue = Array.make net.n 0 in
  let head = ref 0 and tail = ref 0 in
  level.(net.source) <- 0;
  queue.(!tail) <- net.source;
  incr tail;
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    for i = net.off.(u) to net.off.(u + 1) - 1 do
      let a = net.arcs.(i) in
      let v = net.arc_dst.(a) in
      if net.arc_cap.(a) > 0 && level.(v) < 0 then begin
        level.(v) <- level.(u) + 1;
        queue.(!tail) <- v;
        incr tail
      end
    done
  done;
  net.level <- level;
  level.(net.sink) >= 0

(* Blocking flow as an iterative DFS: [path] holds the arc ids of the
   current source-rooted path. After an augmentation we retreat only to
   the first saturated arc — the seed restarts from the source, but its
   preserved cursors rebuild the same prefix, so the augmentation
   sequence is identical. *)
let blocking_flow net =
  let total = ref 0 in
  let path = Array.make (net.n + 1) 0 in
  let plen = ref 0 in
  let finished = ref false in
  while not !finished do
    let u =
      if !plen = 0 then net.source else net.arc_dst.(path.(!plen - 1))
    in
    if u = net.sink then begin
      let f = ref max_int in
      for i = 0 to !plen - 1 do
        if net.arc_cap.(path.(i)) < !f then f := net.arc_cap.(path.(i))
      done;
      for i = 0 to !plen - 1 do
        let a = path.(i) in
        net.arc_cap.(a) <- net.arc_cap.(a) - !f;
        net.arc_cap.(a lxor 1) <- net.arc_cap.(a lxor 1) + !f
      done;
      total := !total + !f;
      let i = ref 0 in
      while !i < !plen && net.arc_cap.(path.(!i)) > 0 do
        incr i
      done;
      plen := !i
    end
    else begin
      let found = ref (-1) in
      while !found < 0 && net.iter.(u) < net.off.(u + 1) do
        let a = net.arcs.(net.iter.(u)) in
        if net.arc_cap.(a) > 0 && net.level.(net.arc_dst.(a)) = net.level.(u) + 1
        then found := a
        else net.iter.(u) <- net.iter.(u) + 1
      done;
      if !found >= 0 then begin
        path.(!plen) <- !found;
        incr plen
      end
      else begin
        net.level.(u) <- -1;
        if !plen = 0 then finished := true else decr plen
      end
    end
  done;
  !total

let max_flow net =
  compile net;
  let flow = ref 0 in
  while bfs net do
    net.iter <- Array.copy net.off;
    flow := !flow + blocking_flow net
  done;
  !flow

let min_cut_side net =
  if Array.length net.off = 0 then compile net;
  let side = Array.make net.n false in
  let queue = Array.make net.n 0 in
  let head = ref 0 and tail = ref 0 in
  side.(net.source) <- true;
  queue.(!tail) <- net.source;
  incr tail;
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    for i = net.off.(u) to net.off.(u + 1) - 1 do
      let a = net.arcs.(i) in
      let v = net.arc_dst.(a) in
      if net.arc_cap.(a) > 0 && not side.(v) then begin
        side.(v) <- true;
        queue.(!tail) <- v;
        incr tail
      end
    done
  done;
  side
