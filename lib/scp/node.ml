open Graphkit
open Simkit

type decision = { value : Value.t; ballot : Ballot.t; time : int }

let pp_decision ppf d =
  Format.fprintf ppf "%a at ballot %a (t=%d)" Value.pp d.value Ballot.pp
    d.ballot d.time

type nomination_strategy = Echo_all | Leader_priority of int

type config = {
  self : Pid.t;
  my_slices : Fbqs.Slice.t;
  initial_peers : Pid.Set.t;
  initial_value : Value.t;
  nomination : nomination_strategy;
  on_decide : Pid.t -> decision -> unit;
}

(* splitmix-style avalanche; any fixed deterministic mix works, it only
   has to be shared and collision-unfriendly. *)
let priority v =
  let z = (v + 0x9e3779b9) land 0x3fffffff in
  let z = z * 0x85ebca6b land 0x3fffffffffff in
  let z = (z lxor (z lsr 13)) * 0xc2b2ae35 in
  (z lxor (z lsr 16)) land max_int

(* Per-node observability handles; counters are pre-registered at node
   creation (registration is idempotent, so all nodes of a run share
   the same registry entries). *)
type node_obs = {
  trace : Obs.Trace.sink option;
  c_votes : Obs.Metrics.counter option;
  c_accepts : Obs.Metrics.counter option;
  c_confirms : Obs.Metrics.counter option;
  c_ballots : Obs.Metrics.counter option;
  c_nom_rounds : Obs.Metrics.counter option;
  c_decides : Obs.Metrics.counter option;
}

(* Envelope dedup for flooding. Most deliveries are duplicates, so the
   probe is a hash and usually one [Msg.equal] on the stored value. *)
module Seen = Hashtbl.Make (Msg)

type state = {
  cfg : config;
  obs : node_obs;
  fv : Fvoting.t;
  known_slices : Fbqs.Quorum.system ref;
      (* slice declarations learned from envelopes, own included *)
  mutable peers : Pid.Set.t;
  seen : unit Seen.t;  (* every envelope sent or received *)
  mutable sent : Msg.t list;  (* own envelopes, newest first, for syncs *)
  mutable candidates : Value.t list;
  mutable current : Ballot.t option;
  mutable high_prepared : Ballot.t option;  (* highest confirmed prepared *)
  mutable decided : decision option;
  mutable nom_round : int;  (* leader-priority nomination round *)
  mutable jump_due : bool;
      (* a prepare was accepted since [maybe_jump] last walked *)
}

let make_obs ?metrics ?trace () =
  let c name = Option.map (fun r -> Obs.Metrics.counter r name) metrics in
  {
    trace;
    c_votes = c "scp_votes";
    c_accepts = c "scp_accepts";
    c_confirms = c "scp_confirms";
    c_ballots = c "scp_ballots_entered";
    c_nom_rounds = c "scp_nomination_rounds";
    c_decides = c "scp_decisions";
  }

let bump = function Some c -> Obs.Metrics.incr c | None -> ()

(* Call sites build their fields only [if tracing st], as [Engine]
   does: an untraced run formats no statement or ballot. *)
let tracing st = Option.is_some st.obs.trace

let obs_event st ctx name fields =
  match st.obs.trace with
  | None -> ()
  | Some sink ->
      Obs.Trace.emit sink ~time:(Engine.now ctx) ~scope:"scp" ~name
        (("node", Obs.Json.Int st.cfg.self) :: fields)

let stmt_field stmt =
  [ ("stmt", Obs.Json.String (Format.asprintf "%a" Statement.pp stmt)) ]

let make_state ?metrics ?trace cfg =
  let known_slices = ref (Pid.Map.singleton cfg.self cfg.my_slices) in
  {
    cfg;
    obs = make_obs ?metrics ?trace ();
    fv =
      Fvoting.create ?metrics ~self:cfg.self
        ~system:(fun () -> !known_slices)
        ();
    known_slices;
    peers = Pid.Set.remove cfg.self cfg.initial_peers;
    seen = Seen.create 64;
    sent = [];
    candidates = [];
    current = None;
    high_prepared = None;
    decided = None;
    nom_round = 1;
    jump_due = false;
  }

(* The leader set for the current round: the [nom_round]
   highest-priority members of the slice domain (self included), so
   leader sets grow round by round and eventually cover someone alive
   and someone shared with every peer. *)
let leaders st =
  let domain =
    Pid.Set.add st.cfg.self (Fbqs.Slice.domain st.cfg.my_slices)
  in
  let ranked =
    List.sort
      (fun a b -> Int.compare (priority b) (priority a))
      (Pid.Set.elements domain)
  in
  let rec take k = function
    | [] -> []
    | _ when k = 0 -> []
    | x :: rest -> x :: take (k - 1) rest
  in
  Pid.Set.of_list (take st.nom_round ranked)

let nomination_active st = st.candidates = []

(* ---- outgoing traffic ------------------------------------------------ *)

let broadcast st ctx (env : Msg.t) =
  Seen.replace st.seen env ();
  Pid.Set.iter (fun j -> Engine.send ctx j env) st.peers

let emit_own st ctx env =
  st.sent <- env :: st.sent;
  broadcast st ctx env

let relay st ctx ~src (env : Msg.t) =
  Pid.Set.iter
    (fun j ->
      if not (Pid.equal j src || Pid.equal j env.origin) then
        Engine.send ctx j env)
    st.peers

(* A newly met peer gets our whole history so that late joiners (e.g.
   sink members contacted by unknown non-sink members) can serve as
   quorum witnesses for them. *)
let sync_to st ctx j = List.iter (fun env -> Engine.send ctx j env) st.sent

(* ---- local voting actions ------------------------------------------- *)

let vote st ctx stmt =
  let tl = Fvoting.tally st.fv stmt in
  if not tl.i_voted then begin
    Fvoting.set_voted st.fv stmt;
    Fvoting.record_vote st.fv stmt st.cfg.self;
    bump st.obs.c_votes;
    if tracing st then obs_event st ctx "vote" (stmt_field stmt);
    emit_own st ctx (Msg.vote st.cfg.self ~slices:st.cfg.my_slices stmt)
  end

let accept st ctx stmt =
  Fvoting.mark_accepted st.fv stmt;
  (match stmt with
  | Statement.Prepare _ -> st.jump_due <- true
  | Statement.Nominate _ | Statement.Commit _ -> ());
  Fvoting.record_accept st.fv stmt st.cfg.self;
  bump st.obs.c_accepts;
  if tracing st then obs_event st ctx "accept" (stmt_field stmt);
  emit_own st ctx (Msg.accept st.cfg.self ~slices:st.cfg.my_slices stmt)

(* ---- prepared-statement tallies with counter subsumption ------------- *)

(* A vote for Prepare (n', x) with n' >= n supports Prepare (n, x): the
   higher prepare aborts strictly more ballots. Concrete SCP messages
   carry ballot ranges; here we merge tallies at evaluation time.
   [pick] selects the voters or the acceptors of a tally. *)
let merged st stmt (tl : Fvoting.tally) pick =
  match stmt with
  | Statement.Prepare b ->
      Fvoting.fold
        (fun s tl' acc ->
          match s with
          | Statement.Prepare b'
            when Ballot.compatible b b' && b'.Ballot.counter >= b.Ballot.counter
            ->
              Pid.Dense_set.union acc (pick tl')
          | _ -> acc)
        st.fv Pid.Dense_set.empty
  | Statement.Nominate _ | Statement.Commit _ -> pick tl

let voters (tl : Fvoting.tally) = tl.voters
let acceptors (tl : Fvoting.tally) = tl.acceptors

(* Accepting a statement is forbidden when we already accepted a
   contradicting one: prepare(b) aborts lower incompatible ballots, so
   it contradicts their commits, and vice versa. *)
let contradicts_accepted st stmt =
  match stmt with
  | Statement.Prepare b ->
      Fvoting.exists
        (fun s (tl : Fvoting.tally) ->
          match s with
          | Statement.Commit b' ->
              tl.i_accepted && Ballot.less_and_incompatible b' b
          | _ -> false)
        st.fv
  | Statement.Commit b ->
      Fvoting.exists
        (fun s (tl : Fvoting.tally) ->
          match s with
          | Statement.Prepare b' ->
              tl.i_accepted && Ballot.less_and_incompatible b b'
          | _ -> false)
        st.fv
  | Statement.Nominate _ -> false

let can_accept st stmt (tl : Fvoting.tally) =
  (not tl.i_accepted)
  && (not (contradicts_accepted st stmt))
  && (Fvoting.quorum_within st.fv (merged st stmt tl voters)
     || Fvoting.v_blocking st.fv (merged st stmt tl acceptors))

let can_confirm st stmt (tl : Fvoting.tally) =
  (not tl.i_confirmed)
  && Fvoting.quorum_within st.fv (merged st stmt tl acceptors)

(* ---- ballot machinery ------------------------------------------------ *)

(* Ballot [n] waits [n] times this many ticks before moving on. *)
let ballot_timeout = 40

let arm_ballot_timer st ctx =
  match st.current with
  | Some b ->
      Engine.set_timer ctx
        ~delay:(ballot_timeout * b.Ballot.counter)
        (Printf.sprintf "ballot:%d" b.Ballot.counter)
  | None -> ()

let next_ballot_value st =
  match st.high_prepared with
  | Some h -> h.Ballot.value
  | None -> Value.combine st.candidates

let enter_ballot st ctx b =
  st.current <- Some b;
  bump st.obs.c_ballots;
  if tracing st then
    obs_event st ctx "enter_ballot"
      [ ("ballot", Obs.Json.String (Format.asprintf "%a" Ballot.pp b)) ];
  vote st ctx (Statement.Prepare b);
  arm_ballot_timer st ctx

(* May we vote to commit b? Not if we asserted any higher incompatible
   prepare (which voted to abort b). *)
let may_vote_commit st b =
  Fvoting.for_all
    (fun s (tl : Fvoting.tally) ->
      match s with
      | Statement.Prepare b' ->
          (not (tl.i_voted || tl.i_accepted))
          || not (Ballot.less_and_incompatible b b')
      | _ -> true)
    st.fv

let on_confirmed st ctx stmt =
  match stmt with
  | Statement.Nominate v ->
      if not (List.exists (Value.equal v) st.candidates) then begin
        st.candidates <- v :: st.candidates;
        if st.current = None then
          enter_ballot st ctx (Ballot.make 1 (Value.combine st.candidates))
      end
  | Statement.Prepare b ->
      (match st.high_prepared with
      | Some h when Ballot.compare h b >= 0 -> ()
      | Some _ | None -> st.high_prepared <- Some b);
      if may_vote_commit st b then vote st ctx (Statement.Commit b)
  | Statement.Commit b ->
      if st.decided = None then begin
        let d =
          { value = b.Ballot.value; ballot = b; time = Engine.now ctx }
        in
        st.decided <- Some d;
        bump st.obs.c_decides;
        if tracing st then
          obs_event st ctx "decide"
            [
              ( "value",
                Obs.Json.String (Format.asprintf "%a" Value.pp d.value) );
              ( "ballot",
                Obs.Json.String (Format.asprintf "%a" Ballot.pp d.ballot) );
            ];
        st.cfg.on_decide st.cfg.self d
      end

(* Run accept/confirm transitions to a fixpoint: each acceptance can
   unlock further acceptances and confirmations. Each pass checks only
   the statements Fvoting flags dirty, in statement order. Skipping a
   clean one is exact: its last check answered false, and for a fixed
   view both checks are monotone in the merged tallies, which have not
   grown since (a growth, or a new view, would have dirtied it), while
   the marks and [contradicts_accepted] only ever turn a check false.
   So every pass takes the same transitions in the same order as a
   pass over every statement would. *)
let rec progress st ctx =
  let changed = ref false in
  Fvoting.iter_dirty
    (fun stmt tl ->
      if can_accept st stmt tl then begin
        accept st ctx stmt;
        changed := true
      end;
      if can_confirm st stmt tl then begin
        Fvoting.mark_confirmed st.fv stmt;
        bump st.obs.c_confirms;
        if tracing st then obs_event st ctx "confirm" (stmt_field stmt);
        on_confirmed st ctx stmt;
        changed := true
      end)
    st.fv;
  if !changed then progress st ctx

(* Catching up: accepting a prepare above our ballot pulls us onto it
   (the v-blocking "jump" of concrete SCP). A walk leaves [current] at
   or above every accepted prepare, and [current] never decreases, so
   the next walk can enter a ballot only if [accept] took a prepare in
   between: otherwise it is skipped. *)
let maybe_jump st ctx =
  if st.jump_due then begin
    st.jump_due <- false;
    Fvoting.iter
      (fun stmt (tl : Fvoting.tally) ->
        match stmt with
        | Statement.Prepare b ->
            let above_current =
              match st.current with
              | None -> true
              | Some cur -> Ballot.compare b cur > 0
            in
            if tl.i_accepted && above_current then enter_ballot st ctx b
        | Statement.Nominate _ | Statement.Commit _ -> ())
      st.fv
  end

(* ---- the behaviour ---------------------------------------------------- *)

(* Nominate our own value if we are a current leader, and arm the
   round timer (leader-priority strategy only). *)
let start_nomination st ctx =
  match st.cfg.nomination with
  | Echo_all -> vote st ctx (Statement.Nominate st.cfg.initial_value)
  | Leader_priority timeout ->
      if Pid.Set.mem st.cfg.self (leaders st) then
        vote st ctx (Statement.Nominate st.cfg.initial_value);
      Engine.set_timer ctx ~delay:timeout
        (Printf.sprintf "nom:%d" st.nom_round)

(* A nomination round timed out without producing a candidate: admit
   the next leader and second any value the enlarged leader set already
   voted for. *)
let bump_nomination_round st ctx timeout =
  st.nom_round <- st.nom_round + 1;
  bump st.obs.c_nom_rounds;
  if tracing st then
    obs_event st ctx "nomination_round"
      [ ("round", Obs.Json.Int st.nom_round) ];
  let ls = leaders st in
  if Pid.Set.mem st.cfg.self ls then
    vote st ctx (Statement.Nominate st.cfg.initial_value);
  Fvoting.iter
    (fun stmt (tl : Fvoting.tally) ->
      match stmt with
      | Statement.Nominate _ ->
          if Pid.Set.exists (fun l -> Pid.Dense_set.mem l tl.voters) ls then
            vote st ctx stmt
      | Statement.Prepare _ | Statement.Commit _ -> ())
    st.fv;
  Engine.set_timer ctx
    ~delay:(timeout * st.nom_round)
    (Printf.sprintf "nom:%d" st.nom_round)

let behavior ?metrics ?trace cfg : Msg.t Engine.behavior =
  let st = make_state ?metrics ?trace cfg in
  let on_start ctx = start_nomination st ctx in
  let on_message ctx ~src (env : Msg.t) =
    if not (Pid.Set.mem src st.peers) && not (Pid.equal src cfg.self) then begin
      st.peers <- Pid.Set.add src st.peers;
      sync_to st ctx src
    end;
    if not (Seen.mem st.seen env) then begin
      Seen.add st.seen env ();
      (* Learn the origin's declared slices; a later conflicting
         declaration (equivocation, only Byzantine nodes do it) is
         ignored — first writer wins, as with a pinned certificate. *)
      if not (Pid.Map.mem env.origin !(st.known_slices)) then
        st.known_slices :=
          Pid.Map.add env.origin env.slices !(st.known_slices);
      relay st ctx ~src env;
      (match env.kind with
      | Msg.Vote ->
          Fvoting.record_vote st.fv env.stmt env.origin;
          (* Nomination echo: until we have a candidate, second
             nominated values — all of them, or only the current
             leaders', depending on the strategy. *)
          (match env.stmt with
          | Statement.Nominate _ when nomination_active st -> (
              match st.cfg.nomination with
              | Echo_all -> vote st ctx env.stmt
              | Leader_priority _ ->
                  if Pid.Set.mem env.origin (leaders st) then
                    vote st ctx env.stmt)
          | _ -> ())
      | Msg.Accept -> Fvoting.record_accept st.fv env.stmt env.origin);
      progress st ctx;
      maybe_jump st ctx
    end
  in
  let on_timer ctx tag =
    match st.cfg.nomination with
    | Leader_priority timeout
      when tag = Printf.sprintf "nom:%d" st.nom_round
           && nomination_active st && st.decided = None ->
        bump_nomination_round st ctx timeout
    | _ -> (
        match (st.current, st.decided) with
        | Some cur, None
          when tag = Printf.sprintf "ballot:%d" cur.Ballot.counter ->
            let b =
              Ballot.make (cur.Ballot.counter + 1) (next_ballot_value st)
            in
            enter_ballot st ctx b;
            progress st ctx
        | _ -> ())
  in
  { on_start; on_message; on_timer }

(* ---- byzantine variants ---------------------------------------------- *)

let silent : Msg.t Engine.behavior = Engine.idle_behavior

let accept_forger ~self ~slices ~peers stmts : Msg.t Engine.behavior =
  {
    Engine.idle_behavior with
    on_start =
      (fun ctx ->
        List.iter
          (fun stmt ->
            Pid.Set.iter
              (fun j -> Engine.send ctx j (Msg.accept self ~slices stmt))
              (Pid.Set.remove self peers))
          stmts);
  }

let nomination_equivocator ~self ~slices ~split ~value_a ~value_b ~peers :
    Msg.t Engine.behavior =
  {
    Engine.idle_behavior with
    on_start =
      (fun ctx ->
        Pid.Set.iter
          (fun j ->
            let v = if split j then value_a else value_b in
            Engine.send ctx j (Msg.vote self ~slices (Statement.Nominate v)))
          (Pid.Set.remove self peers));
  }

(* Declares [slices_a] to peers satisfying [split] and [slices_b] to
   the rest while voting to nominate [value] — slice-level
   equivocation, possible because declarations are not signed
   statements about a single global object. Correct receivers pin the
   first declaration they see. *)
let slice_equivocator ~self ~slices_a ~slices_b ~split ~value ~peers :
    Msg.t Engine.behavior =
  {
    Engine.idle_behavior with
    on_start =
      (fun ctx ->
        Pid.Set.iter
          (fun j ->
            let slices = if split j then slices_a else slices_b in
            Engine.send ctx j
              (Msg.vote self ~slices (Statement.Nominate value)))
          (Pid.Set.remove self peers));
  }
