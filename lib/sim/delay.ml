open Graphkit

type kind =
  | Synchronous
  | Partial
  | Targeted of (Pid.t -> Pid.t -> bool)

type t = { kind : kind; gst : int; delta : int; rng : Rng.t }

let synchronous ~delta =
  {
    kind = Synchronous;
    gst = 0;
    delta = max 1 delta;
    rng = Rng.make [| 0 |];
  }

let partial_synchrony ~gst ~delta ~seed =
  {
    kind = Partial;
    gst;
    delta = max 1 delta;
    rng = Rng.make [| seed; 0xde1a |];
  }

let targeted ~gst ~delta ~seed ~slow =
  {
    kind = Targeted slow;
    gst;
    delta = max 1 delta;
    rng = Rng.make [| seed; 0x7a26 |];
  }

let random_partition ~gst ~delta ~seed ~n =
  let rng = Rng.make [| seed; 0xba9 |] in
  let side = Array.init (max 1 n) (fun _ -> Rng.bool rng) in
  let side_of i = if i >= 0 && i < Array.length side then side.(i) else false in
  {
    kind = Targeted (fun a b -> side_of a <> side_of b);
    gst;
    delta = max 1 delta;
    rng = Rng.make [| seed; 0xba10 |];
  }

let uniform t = 1 + Rng.int t.rng t.delta

let pre_gst_random t ~now =
  (* Any delay up to the DLS deadline gst + delta. *)
  let horizon = t.gst + t.delta - now in
  if horizon <= 1 then 1 else 1 + Rng.int t.rng horizon

let delay_of t ~now ~src ~dst =
  match t.kind with
  | Synchronous -> uniform t
  | Partial -> if now >= t.gst then uniform t else pre_gst_random t ~now
  | Targeted slow ->
      if now >= t.gst then uniform t
      else if slow src dst then max 1 (t.gst + t.delta - now)
      else uniform t

let gst t = t.gst
