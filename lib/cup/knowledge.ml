open Graphkit

type t = {
  self : Pid.t;
  pd : Pid.Set.t;
  f : int;
  mutable known : Pid.Set.t;
  mutable subscribed : Pid.Set.t;  (* processes we sent Know_request to *)
  mutable subscribers : Pid.Set.t;  (* processes to notify on change *)
  mutable views : Pid.Set.t Pid.Map.t;  (* claimant -> its latest view *)
  vouchers : (Pid.t, int) Hashtbl.t;  (* unknown id -> vouching claimants *)
  mutable agreeing : int;  (* claimants other than self whose view = known *)
  mutable sink : Pid.Set.t option;
}

let create ~self ~pd ~f =
  let pd = Pid.Set.remove self pd in
  {
    self;
    pd;
    f;
    known = Pid.Set.add self pd;
    subscribed = Pid.Set.empty;
    subscribers = Pid.Set.empty;
    views = Pid.Map.empty;
    vouchers = Hashtbl.create 16;
    agreeing = 0;
    sink = None;
  }

let known t = t.known
let sink_result t = t.sink

(* SINK termination. Every claimant is known (claims are stored only
   from known sources, and [known] only grows), so the members of
   [known] reporting [known] are the process itself plus [agreeing]. *)
let refresh_sink t =
  match t.sink with
  | Some _ -> ()
  | None ->
      let size = Pid.Set.cardinal t.known in
      (* The size guard keeps the rule meaningful: a genuine sink has at
         least 2f+1 correct members, so a converged sink member always
         passes it, while a non-sink process with a tiny vouched set
         (e.g. |known| = f+1) cannot self-certify on its echo alone. *)
      if size >= (2 * t.f) + 1 && 1 + t.agreeing >= size - t.f then
        t.sink <- Some t.known

let vouch t x delta =
  let n = Option.value ~default:0 (Hashtbl.find_opt t.vouchers x) + delta in
  Hashtbl.replace t.vouchers x n;
  n

(* Moves [src]'s claim from [old] to [view]: the voucher tallies of the
   unknown ids entering or leaving it, and [agreeing]. Returns the
   unknown ids the move brought to f + 1 vouchers. An id is tallied
   only while unknown, and was unknown when it entered any view it
   leaves while still unknown, so each unknown id's tally is exact. *)
let move_claim t ~src ~old view =
  Pid.Set.iter
    (fun x -> if not (Pid.Set.mem x t.known) then ignore (vouch t x (-1)))
    (Pid.Set.diff old view);
  let fresh =
    Pid.Set.fold
      (fun x fresh ->
        if (not (Pid.Set.mem x t.known)) && vouch t x 1 >= t.f + 1 then
          Pid.Set.add x fresh
        else fresh)
      (Pid.Set.diff view old) Pid.Set.empty
  in
  if not (Pid.equal src t.self) then begin
    if Pid.Set.equal old t.known then t.agreeing <- t.agreeing - 1;
    if Pid.Set.equal view t.known then t.agreeing <- t.agreeing + 1
  end;
  fresh

let subscribe_new t ~send =
  let unsub = Pid.Set.diff (Pid.Set.remove t.self t.known) t.subscribed in
  Pid.Set.iter
    (fun j ->
      t.subscribed <- Pid.Set.add j t.subscribed;
      send j Msg.Know_request)
    unsub

let notify_subscribers t ~send =
  Pid.Set.iter (fun j -> send j (Msg.Know t.known)) t.subscribers

let start t ~send = subscribe_new t ~send

let on_know_request t ~send ~src =
  if not (Pid.Set.mem src t.subscribers) then begin
    t.subscribers <- Pid.Set.add src t.subscribers;
    send src (Msg.Know t.known)
  end

(* Admits the ids vouched by f + 1 known claimants. One round is the
   fixpoint: claims change only on a [Know], and every other unknown id
   was already below f + 1 before this one. *)
let grow t ~send fresh =
  if not (Pid.Set.is_empty fresh) then begin
    t.known <- Pid.Set.union t.known fresh;
    t.agreeing <-
      Pid.Map.fold
        (fun j view n ->
          if (not (Pid.equal j t.self)) && Pid.Set.equal view t.known then
            n + 1
          else n)
        t.views 0;
    subscribe_new t ~send;
    notify_subscribers t ~send
  end

let on_know t ~send ~src view =
  if Pid.Set.mem src t.known then begin
    (* Channels are not FIFO: a stale Know can arrive after a newer
       one. Correct processes' knowledge only grows, so keep the
       superset (for incomparable reports — only a Byzantine sender
       produces those — keep the larger). A kept view changes nothing
       the tallies or the termination test read. *)
    match Pid.Map.find_opt src t.views with
    | Some old
      when Pid.Set.cardinal old > Pid.Set.cardinal view
           || Pid.Set.subset view old ->
        ()
    | stored ->
        let old = Option.value ~default:Pid.Set.empty stored in
        t.views <- Pid.Map.add src view t.views;
        grow t ~send (move_claim t ~src ~old view);
        refresh_sink t
  end
