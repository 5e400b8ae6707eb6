open Graphkit
module D = Pid.Dense_set
module Compiled = Fbqs.Quorum.Compiled

type tally = {
  mutable voters : D.t;
  mutable acceptors : D.t;
  mutable i_voted : bool;
  mutable i_accepted : bool;
  mutable i_confirmed : bool;
  mutable dirty : bool;
}

type t = {
  self : Pid.t;
  keep : D.t;  (* {self}: the member a quorum check must keep *)
  system : unit -> Fbqs.Quorum.system;
  mutable view : (Fbqs.Quorum.system * Compiled.t) option;
      (* the last value [system ()] returned, and its compiled view *)
  mutable flags_for : Fbqs.Quorum.system option;
      (* the system value the clean flags were last checked against *)
  mutable tallies : tally Statement.Map.t;
  c_quorum_checks : Obs.Metrics.counter option;
  c_vblocking_checks : Obs.Metrics.counter option;
  c_view_hits : Obs.Metrics.counter option;
  c_view_misses : Obs.Metrics.counter option;
}

let empty_tally () =
  {
    voters = D.empty;
    acceptors = D.empty;
    i_voted = false;
    i_accepted = false;
    i_confirmed = false;
    dirty = true;
  }

let create ?metrics ~self ~system () =
  let c name = Option.map (fun r -> Obs.Metrics.counter r name) metrics in
  {
    self;
    keep = D.singleton self;
    system;
    view = None;
    flags_for = None;
    tallies = Statement.Map.empty;
    c_quorum_checks = c "scp_quorum_checks";
    c_vblocking_checks = c "scp_vblocking_checks";
    c_view_hits = c "fbqs_cache_hits";
    c_view_misses = c "fbqs_cache_misses";
  }

let tally t stmt =
  match Statement.Map.find_opt stmt t.tallies with
  | Some tl -> tl
  | None -> empty_tally ()

(* The statement's live record, added on first use and never replaced,
   so the records an iteration hands out stay current. *)
let live t stmt =
  match Statement.Map.find_opt stmt t.tallies with
  | Some tl -> tl
  | None ->
      let tl = empty_tally () in
      t.tallies <- Statement.Map.add stmt tl t.tallies;
      tl

(* The tally of [stmt] grew. Node merges the tallies of every
   compatible prepare at or above a prepare's counter into that
   prepare's check, so growing [Prepare b'] also dirties every
   compatible [Prepare b] with [b.counter <= b'.counter]. *)
let grew t stmt tl =
  tl.dirty <- true;
  match stmt with
  | Statement.Prepare b' ->
      Statement.Map.iter
        (fun s (tl : tally) ->
          match s with
          | Statement.Prepare b
            when b.Ballot.counter <= b'.Ballot.counter
                 && Ballot.compatible b b' ->
              tl.dirty <- true
          | _ -> ())
        t.tallies
  | Statement.Nominate _ | Statement.Commit _ -> ()

let rec record_vote t stmt src =
  let tl = live t stmt in
  if not (D.mem src tl.voters) then begin
    tl.voters <- D.add src tl.voters;
    grew t stmt tl
  end;
  List.iter (fun s -> record_vote t s src) (Statement.implied stmt)

let rec record_accept t stmt src =
  let tl = live t stmt in
  if not (D.mem src tl.acceptors) then begin
    tl.voters <- D.add src tl.voters;
    tl.acceptors <- D.add src tl.acceptors;
    grew t stmt tl
  end;
  List.iter (fun s -> record_accept t s src) (Statement.implied stmt)

let set_voted t stmt = (live t stmt).i_voted <- true
let mark_accepted t stmt = (live t stmt).i_accepted <- true
let mark_confirmed t stmt = (live t stmt).i_confirmed <- true
let bump = function Some c -> Obs.Metrics.incr c | None -> ()

(* The compiled view of [system ()]. The system value changes only when
   the node learns a new origin, so the view is recompiled only when
   that value is physically new. *)
let view t ~hits ~misses =
  let sys = t.system () in
  match t.view with
  | Some (seen, c) when seen == sys ->
      bump hits;
      c
  | Some _ | None ->
      bump misses;
      let c = Compiled.compile sys in
      t.view <- Some (sys, c);
      c

(* Rule (a) of accept and the confirm rule demand a quorum containing
   this node all of whose members assert the statement — the node's own
   assertion is part of the tally (recorded when it broadcasts), so no
   special-casing of [self] here. Each fixpoint round tests [self]
   first, so [self ∉ gq(s)] is decided at the first round it fails. *)
let quorum_within t s =
  bump t.c_quorum_checks;
  let c = view t ~hits:t.c_view_hits ~misses:t.c_view_misses in
  D.mem t.self s
  && Option.is_some (Compiled.greatest_quorum_keeping_d c ~keep:t.keep s)

let v_blocking t b =
  bump t.c_vblocking_checks;
  Compiled.is_v_blocking_d (view t ~hits:None ~misses:None) t.self b

(* A statement whose check answered false stays false until its merged
   tally grows or the view changes: both checks are monotone in the
   tally for a fixed view, and what vetoes them (its own marks, a
   contradicting acceptance) only accumulates. So only the dirty ones
   are worth a look. *)
let iter_dirty f t =
  let sys = t.system () in
  (match t.flags_for with
  | Some s when s == sys -> ()
  | Some _ | None ->
      Statement.Map.iter (fun _ tl -> tl.dirty <- true) t.tallies;
      t.flags_for <- Some sys);
  Statement.Map.iter
    (fun stmt tl ->
      if tl.dirty then begin
        tl.dirty <- false;
        f stmt tl
      end)
    t.tallies

let iter f t = Statement.Map.iter f t.tallies
let fold f t acc = Statement.Map.fold f t.tallies acc
let exists f t = Statement.Map.exists f t.tallies
let for_all f t = Statement.Map.for_all f t.tallies
