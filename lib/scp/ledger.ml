open Graphkit

type entry = { slot : int; value : Value.t; decided_at : int }

let pp_entry ppf e =
  Format.fprintf ppf "slot %d: %a (t=%d)" e.slot Value.pp e.value e.decided_at

type result = {
  ledgers : entry list Pid.Map.t;
  consistent : bool;
  complete : bool;
  total_messages : int;
  total_ticks : int;
}

let run ?(seed = 0) ~slots ~system ~peers_of ~tx_pool ~fault_of () =
  let ledgers = ref Pid.Map.empty in
  let append pid entry =
    ledgers :=
      Pid.Map.update pid
        (fun l -> Some (entry :: Option.value ~default:[] l))
        !ledgers
  in
  let total_messages = ref 0 and total_ticks = ref 0 in
  let consistent = ref true in
  let complete = ref true in
  for slot = 0 to slots - 1 do
    let d = Runner.default_cfg in
    let cfg =
      {
        d with
        Runner.run =
          { d.run with seed = seed + (1000 * slot); max_time = 200_000 };
      }
    in
    let outcome =
      Runner.run_cfg ~cfg ~system ~peers_of
        ~initial_value_of:(tx_pool slot) ~fault_of ()
    in
    total_messages := !total_messages + outcome.stats.messages_sent;
    total_ticks := !total_ticks + outcome.stats.end_time;
    if not outcome.agreement then consistent := false;
    if not outcome.all_decided then complete := false;
    Pid.Map.iter
      (fun pid (d : Node.decision) ->
        append pid { slot; value = d.value; decided_at = d.time })
      outcome.decisions
  done;
  {
    ledgers = Pid.Map.map List.rev !ledgers;
    consistent = !consistent;
    complete = !complete;
    total_messages = !total_messages;
    total_ticks = !total_ticks;
  }
