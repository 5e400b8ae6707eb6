(** A replicated ledger: consecutive SCP consensus instances.

    The paper analyses a single consensus instance; real Stellar closes
    a ledger by running one instance per slot. This layer drives a
    sequence of slots, each with its own transaction batch, and checks
    cross-replica consistency of the resulting ledgers — the natural
    "are we actually building a blockchain" integration test for the
    whole stack. Slots are independent executions over the same slice
    system (the membership is static per the paper's model). *)

open Graphkit

type entry = { slot : int; value : Value.t; decided_at : int }

val pp_entry : Format.formatter -> entry -> unit

type result = {
  ledgers : entry list Pid.Map.t;
      (** per correct node, in slot order; a node's list may be shorter
          than [slots] if some instance timed out *)
  consistent : bool;
      (** for every slot, all nodes that closed it agree on its value *)
  complete : bool;  (** every correct node closed every slot *)
  total_messages : int;
  total_ticks : int;
}

val run :
  ?seed:int ->
  slots:int ->
  system:Fbqs.Quorum.system ->
  peers_of:(Pid.t -> Pid.Set.t) ->
  tx_pool:(int -> Pid.t -> Value.t) ->
  fault_of:(Pid.t -> Runner.fault option) ->
  unit ->
  result
(** [tx_pool slot node] is the transaction batch [node] proposes for
    [slot]. Each slot runs under a fresh partial-synchrony schedule
    derived from [seed] and the slot number, with
    {!Runner.default_cfg}'s timing and at most 200,000 ticks. *)
