open Graphkit

type answer = { in_sink : bool; view : Pid.Set.t }

(* Each entry point condenses its graph once: [get_sink] per call,
   [shared] and [get_sink_restricted] at partial application, so a
   run's per-process queries share one condensation. *)
let sink_of g =
  match Condensation.unique_sink g with
  | Some s -> s
  | None -> invalid_arg "Sink_oracle: graph has no unique sink component"

let get_sink g i =
  let sink = sink_of g in
  { in_sink = Pid.Set.mem i sink; view = sink }

let shared g =
  let sink = sink_of g in
  fun i -> { in_sink = Pid.Set.mem i sink; view = sink }

let get_sink_restricted ~seed ~f ~correct g =
  let sink = sink_of g in
  let correct_sink = Pid.Set.inter sink correct in
  let faulty_sink = Pid.Set.diff sink correct in
  fun i ->
    if Pid.Set.mem i sink then { in_sink = true; view = sink }
    else begin
      let rng = Rng.make [| seed; i; 0x51c |] in
      let pick k pool =
        Pid.Set.of_list
          (Array.to_list
             (Rng.sample rng k (Array.of_list (Pid.Set.elements pool))))
      in
      let view =
        Pid.Set.union (pick (f + 1) correct_sink) (pick f faulty_sink)
      in
      { in_sink = false; view }
    end
