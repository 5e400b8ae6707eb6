open Graphkit

type t = {
  self : Pid.t;
  pd : Pid.Set.t;
  f : int;
  mutable known : Pid.Set.t;
  mutable subscribed : Pid.Set.t;  (* processes we sent Know_request to *)
  mutable subscribers : Pid.Set.t;  (* processes to notify on change *)
  mutable last_know : Pid.Set.t Pid.Map.t;  (* src -> its latest view *)
  mutable claims : Pid.Set.t Pid.Map.t;  (* claimant -> ids it vouched *)
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
    last_know = Pid.Map.empty;
    claims = Pid.Map.empty;
    sink = None;
  }

let known t = t.known
let sink_result t = t.sink

let refresh_sink t =
  match t.sink with
  | Some _ -> ()
  | None ->
      let agreeing =
        Pid.Set.fold
          (fun j acc ->
            if Pid.equal j t.self then acc + 1
            else
              match Pid.Map.find_opt j t.last_know with
              | Some view when Pid.Set.equal view t.known -> acc + 1
              | Some _ | None -> acc)
          t.known 0
      in
      (* The size guard keeps the rule meaningful: a genuine sink has at
         least 2f+1 correct members, so a converged sink member always
         passes it, while a non-sink process with a tiny vouched set
         (e.g. |known| = f+1) cannot self-certify on its echo alone. *)
      if
        Pid.Set.cardinal t.known >= (2 * t.f) + 1
        && agreeing >= Pid.Set.cardinal t.known - t.f
      then t.sink <- Some t.known

(* Recompute [known] from first-hand knowledge plus ids vouched by
   f + 1 distinct known claimants; returns whether it grew. *)
let refresh_known t =
  let votes = Hashtbl.create 16 in
  Pid.Map.iter
    (fun claimant ids ->
      if Pid.Set.mem claimant t.known then
        Pid.Set.iter
          (fun x ->
            if not (Pid.Set.mem x t.known) then
              Hashtbl.replace votes x
                (1 + Option.value ~default:0 (Hashtbl.find_opt votes x)))
          ids)
    t.claims;
  let fresh =
    (* Order-insensitive D1 escape: the vote tally folds straight into
       [Pid.Set.add], so bucket order cannot leak into [known]. *)
    Hashtbl.fold
      (fun x c acc -> if c >= t.f + 1 then Pid.Set.add x acc else acc)
      votes Pid.Set.empty
  in
  if Pid.Set.is_empty fresh then false
  else begin
    t.known <- Pid.Set.union t.known fresh;
    true
  end

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

let rec stabilise t ~send =
  (* New claims may unlock new ids, which add claimants, and so on. *)
  if refresh_known t then begin
    subscribe_new t ~send;
    notify_subscribers t ~send;
    stabilise t ~send
  end

let on_know t ~send ~src view =
  if Pid.Set.mem src t.known then begin
    (* Channels are not FIFO: a stale Know can arrive after a newer
       one. Correct processes' knowledge only grows, so keep the
       superset (for incomparable reports — only a Byzantine sender
       produces those — keep the larger). *)
    let monotone m =
      Pid.Map.update src
        (function
          | Some old
            when Pid.Set.cardinal old > Pid.Set.cardinal view
                 || Pid.Set.subset view old ->
              Some old
          | Some _ | None -> Some view)
        m
    in
    t.last_know <- monotone t.last_know;
    t.claims <- monotone t.claims;
    stabilise t ~send;
    refresh_sink t
  end
