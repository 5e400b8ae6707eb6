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
      let rng = Random.State.make [| seed; i; 0x51c |] in
      let pick k pool =
        let arr = Array.of_list (Pid.Set.elements pool) in
        let n = Array.length arr in
        let k = min k n in
        for idx = 0 to k - 1 do
          let j = idx + Random.State.int rng (n - idx) in
          let tmp = arr.(idx) in
          arr.(idx) <- arr.(j);
          arr.(j) <- tmp
        done;
        Pid.Set.of_list (Array.to_list (Array.sub arr 0 k))
      in
      let view =
        Pid.Set.union (pick (f + 1) correct_sink) (pick f faulty_sink)
      in
      { in_sink = false; view }
    end
