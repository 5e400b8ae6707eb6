(* Every compiled handle has one owner: the call that compiled it.
   The analyses below compile their argument once per call and keep
   nothing afterwards, so their input is garbage once they return, and
   no lock is needed to run them in parallel jobs. *)

open Graphkit
open Fbqs

let fig1_system () =
  Quorum.system_of_list
    (List.map
       (fun (i, slices) -> (i, Slice.explicit slices))
       Builtin.fig1_slices)

let pbft4 () =
  let members = Pid.Set.of_range 1 4 in
  Quorum.system_of_list
    (List.map
       (fun i -> (i, Slice.threshold ~members ~threshold:3))
       (Pid.Set.elements members))

let osr_graph seed =
  Generators.random_k_osr ~seed ~sink_size:6 ~non_sink:3 ~k:2 ()

(* Builds the input with [make], runs [f] on it and returns a weak
   pointer to the input, which nothing else here keeps. *)
let run_behind_weak_pointer make f =
  let x = make () in
  let w = Weak.create 1 in
  Weak.set w 0 (Some x);
  ignore (Sys.opaque_identity (f x));
  w
[@@inline never]

let check_freed name make f =
  let w = run_behind_weak_pointer make f in
  Gc.full_major ();
  Alcotest.(check bool) (name ^ " frees its input") false (Weak.check w 0)

let test_inputs_freed () =
  let w = Pid.Set.of_range 1 7 in
  check_freed "Cluster.maximal_clusters" fig1_system (fun sys ->
      Cluster.maximal_clusters sys ~correct:w
        ~mode:(Intertwine.Correct_witness w) ());
  check_freed "Dset.minimal_dsets" pbft4 Dset.minimal_dsets;
  check_freed "Analysis.liveness_level" pbft4 Analysis.liveness_level;
  check_freed "Properties.check_k_osr"
    (fun () -> osr_graph 1)
    (fun g -> Properties.check_k_osr g 2);
  check_freed "Sink_oracle.get_sink"
    (fun () -> osr_graph 1)
    (fun g -> Cup.Sink_oracle.get_sink g 0)

let osr g =
  match Properties.check_k_osr g 2 with
  | Ok sink -> Pid.Set.to_string sink
  | Error e -> Format.asprintf "%a" Properties.pp_osr_failure e

let clusters correct =
  Cluster.maximal_clusters (fig1_system ()) ~correct
    ~mode:(Intertwine.Correct_witness correct) ()
  |> List.map Pid.Set.to_string |> String.concat " "

let test_parallel_equals_sequential () =
  let graphs = List.map osr_graph [ 1; 2; 3; 4 ] in
  let same name f xs =
    Alcotest.(check (list string))
      (name ^ ": jobs 2 = List.map") (List.map f xs)
      (Simkit.Exec.map ~jobs:2 f xs)
  in
  same "check_k_osr" osr graphs;
  same "vertex_connectivity"
    (fun g -> string_of_int (Connectivity.vertex_connectivity g))
    graphs;
  same "maximal_clusters" clusters
    [ Pid.Set.of_range 1 7; Pid.Set.of_range 1 8; Pid.Set.of_range 4 8 ]

let suites =
  [
    ( "handles",
      [
        Alcotest.test_case "analyses free their input" `Quick
          test_inputs_freed;
        Alcotest.test_case "parallel analyses = sequential" `Quick
          test_parallel_equals_sequential;
      ] );
  ]
