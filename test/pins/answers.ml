(* Projects a report onto its answers (DESIGN.md §19): drops the work
   column, [payload.stats] and the work counters of [payload.metrics]
   (an analyzer's [fbqs_enum_*], a run's quorum and v-blocking checks
   and view reuses), and prints every other byte as the report had it.

     answers.exe REPORT.json > REPORT.answers.json

   A change that only does less work re-pins the full report and leaves
   this projection of it unmoved. *)

let work_counter name =
  String.starts_with ~prefix:"fbqs_enum_" name
  || List.mem name
       [
         "scp_quorum_checks";
         "scp_vblocking_checks";
         "fbqs_cache_hits";
         "fbqs_cache_misses";
       ]

let work_metric = function
  | Obs.Json.Obj fields -> (
      match List.assoc_opt "name" fields with
      | Some (Obs.Json.String name) -> work_counter name
      | _ -> false)
  | _ -> false

let answers_of_metrics = function
  | Obs.Json.Obj fields ->
      Obs.Json.Obj
        (List.map
           (function
             | "metrics", Obs.Json.List ms ->
                 ( "metrics",
                   Obs.Json.List
                     (List.filter (fun m -> not (work_metric m)) ms) )
             | field -> field)
           fields)
  | other -> other

let answers_of_payload = function
  | Obs.Json.Obj fields ->
      Obs.Json.Obj
        (List.filter_map
           (function
             | "stats", _ -> None
             | "metrics", m -> Some ("metrics", answers_of_metrics m)
             | field -> Some field)
           fields)
  | other -> other

let () =
  let path = Sys.argv.(1) in
  let text = In_channel.with_open_bin path In_channel.input_all in
  match Obs.Json.of_string text with
  | Ok (Obs.Json.Obj fields) ->
      print_endline
        (Obs.Json.to_string
           (Obs.Json.Obj
              (List.map
                 (function
                   | "payload", p -> ("payload", answers_of_payload p)
                   | field -> field)
                 fields)))
  | Ok _ ->
      prerr_endline (path ^ ": not a report envelope");
      exit 1
  | Error e ->
      prerr_endline (path ^ ": " ^ e);
      exit 1
