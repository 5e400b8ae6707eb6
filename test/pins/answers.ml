(* Projects reports onto their answers (DESIGN.md §19): drops the work
   column, [payload.stats] and the work counters of [payload.metrics]
   (an analyzer's [fbqs_enum_*], a run's quorum and v-blocking checks
   and view reuses), and prints every other byte as the report had it.
   The input holds one envelope per line: a CLI report is one line, a
   daemon session one line per response. In a daemon's [stats]
   response only [requests], [active_clients] and [clients_served] are
   answers; the pool's worker counts and the caches' counters go.

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

let answers_of_daemon_stats = function
  | Obs.Json.Obj fields ->
      Obs.Json.Obj
        (List.filter_map
           (function
             | "pool", Obs.Json.Obj pool ->
                 Some
                   ( "pool",
                     Obs.Json.Obj
                       (List.filter
                          (fun (k, _) ->
                            k = "active_clients" || k = "clients_served")
                          pool) )
             | "caches", _ -> None
             | field -> Some field)
           fields)
  | other -> other

let answers_of_envelope path = function
  | Ok (Obs.Json.Obj fields) ->
      let payload =
        match List.assoc_opt "verb" fields with
        | Some (Obs.Json.String "stats") -> answers_of_daemon_stats
        | _ -> answers_of_payload
      in
      Obs.Json.Obj
        (List.map
           (function "payload", p -> ("payload", payload p) | field -> field)
           fields)
  | Ok _ ->
      prerr_endline (path ^ ": not a report envelope");
      exit 1
  | Error e ->
      prerr_endline (path ^ ": " ^ e);
      exit 1

let () =
  let path = Sys.argv.(1) in
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun line -> line <> "")
  |> List.iter (fun line ->
         print_endline
           (Obs.Json.to_string
              (answers_of_envelope path (Obs.Json.of_string line))))
