(* Benchmark and experiment harness.

   Usage:
     dune exec bench/main.exe            -- experiments + microbenches
     dune exec bench/main.exe -- exp     -- experiment tables only
     dune exec bench/main.exe -- micro   -- bechamel microbenches only
                                            (writes BENCH_quorum.json and
                                            BENCH_analysis.json)
     dune exec bench/main.exe -- markdown -- tables as markdown on stdout
     dune exec bench/main.exe -- sweep   -- sequential-vs-parallel sweep
                                            timings (writes
                                            BENCH_sweep.json)
     dune exec bench/main.exe -- regen-experiments
                                         -- rewrite the generated-tables
                                            section of EXPERIMENTS.md
     dune exec bench/main.exe -- check-experiments
                                         -- exit 1 if EXPERIMENTS.md is
                                            out of date (CI guard)
     dune exec bench/main.exe -- check-regress [--tolerance R]
                                         -- re-measure the microbenches
                                            and the sweep sequential
                                            legs; exit 1 if any
                                            committed BENCH_quorum.json,
                                            BENCH_analysis.json or
                                            BENCH_sweep.json subject
                                            slowed down by more than R
                                            (default 0.5, i.e. +50%)

   Every mode accepts a trailing [--jobs N] (default 1; sweep defaults
   to 4): experiment samples are then farmed out to Simkit.Exec — a
   pool of N domains on OCaml 5, N forked worker processes otherwise.
   When --jobs is absent, STELLAR_CUP_JOBS supplies the default (the
   same precedence as every CLI --jobs flag). The tables are
   byte-identical for every N and on either backend.

   One experiment table per paper artifact (figures, algorithms,
   theorems — see DESIGN.md §5), plus Bechamel microbenches for the hot
   kernels every experiment leans on. Microbench results are also
   persisted machine-readably to BENCH_quorum.json so the quorum-kernel
   perf trajectory is tracked across PRs; BENCH_sweep.json tracks the
   wall-clock win of the parallel sweep executor. *)

open Graphkit
open Bechamel
open Toolkit

(* ---- microbench subjects --------------------------------------------- *)

let threshold_system n t =
  let members = Pid.Set.of_range 1 n in
  Fbqs.Quorum.system_of_list
    (List.map
       (fun i -> (i, Fbqs.Slice.threshold ~members ~threshold:t))
       (Pid.Set.elements members))

(* The seed's tree-set quorum kernel, kept verbatim as the baseline the
   dense bitset path is measured against: per-member [Pid.Set] counting
   with a physical-equality memo over shared member records. *)
let tree_member_ok_cached q =
  let memo = ref [] in
  let inter_count members =
    match List.find_opt (fun (m, _) -> m == members) !memo with
    | Some (_, c) -> c
    | None ->
        let c = Pid.Set.cardinal (Pid.Set.inter members q) in
        memo := (members, c) :: !memo;
        c
  in
  fun sys i ->
    match Fbqs.Quorum.slices_of sys i with
    | Fbqs.Slice.Threshold { members; threshold } ->
        threshold <= Pid.Set.cardinal members
        && inter_count members >= threshold
    | s -> Fbqs.Slice.has_slice_within s q

let tree_is_quorum sys q =
  (not (Pid.Set.is_empty q))
  &&
  let ok = tree_member_ok_cached q sys in
  Pid.Set.for_all (fun i -> ok i) q

let subject_is_quorum_symbolic = "is_quorum/symbolic n=1000"
let subject_is_quorum_tree = "is_quorum/tree-set-baseline n=1000"
let subject_inter_cardinal_dense = "inter-cardinal/dense-bitset n=1000"
let subject_inter_cardinal_tree = "inter-cardinal/tree-set n=1000"

let bench_is_quorum_symbolic =
  let n = 1000 in
  let c = Fbqs.Quorum.Compiled.compile (threshold_system n ((2 * n / 3) + 1)) in
  let q = Pid.Set.of_range 1 ((3 * n / 4) + 1) in
  Test.make ~name:subject_is_quorum_symbolic (Staged.stage (fun () ->
      ignore (Fbqs.Quorum.Compiled.is_quorum c q)))

let bench_is_quorum_tree_baseline =
  let n = 1000 in
  let sys = threshold_system n ((2 * n / 3) + 1) in
  let q = Pid.Set.of_range 1 ((3 * n / 4) + 1) in
  Test.make ~name:subject_is_quorum_tree (Staged.stage (fun () ->
      ignore (tree_is_quorum sys q)))

let bench_inter_cardinal_dense =
  let n = 1000 in
  let members = Pid.Dense_set.of_range 1 n in
  let q = Pid.Dense_set.of_range 1 ((3 * n / 4) + 1) in
  Test.make ~name:subject_inter_cardinal_dense (Staged.stage (fun () ->
      ignore (Pid.Dense_set.inter_cardinal members q)))

let bench_inter_cardinal_tree =
  let n = 1000 in
  let members = Pid.Set.of_range 1 n in
  let q = Pid.Set.of_range 1 ((3 * n / 4) + 1) in
  Test.make ~name:subject_inter_cardinal_tree (Staged.stage (fun () ->
      ignore (Pid.Set.cardinal (Pid.Set.inter members q))))

let bench_is_quorum_explicit =
  let n = 12 in
  let members = Pid.Set.of_range 1 n in
  let sym = Fbqs.Slice.threshold ~members ~threshold:8 in
  let explicit = Fbqs.Slice.explicit (Fbqs.Slice.enumerate sym) in
  let sys =
    Fbqs.Quorum.system_of_list
      (List.map (fun i -> (i, explicit)) (Pid.Set.elements members))
  in
  let c = Fbqs.Quorum.Compiled.compile sys in
  let q = Pid.Set.of_range 1 9 in
  Test.make ~name:"is_quorum/explicit n=12 (495 slices)"
    (Staged.stage (fun () -> ignore (Fbqs.Quorum.Compiled.is_quorum c q)))

let bench_greatest_quorum =
  let n = 200 in
  let c = Fbqs.Quorum.Compiled.compile (threshold_system n ((2 * n / 3) + 1)) in
  let universe = Pid.Set.of_range 1 n in
  Test.make ~name:"greatest_quorum_within n=200" (Staged.stage (fun () ->
      ignore (Fbqs.Quorum.Compiled.greatest_quorum_within c universe)))

let subject_scc_csr = "scc/csr circulant n=2000"
let subject_scc_tree = "scc/tarjan circulant n=2000"
let subject_reach_csr = "reach/csr circulant n=2000"
let subject_reach_tree = "reach/tree circulant n=2000"
let subject_kosr_csr = "k-osr-check/csr n=14 k=2"
let subject_kosr_tree = "k-osr-check n=14 k=2"

(* The seed tree-set Tarjan (test/oracle): the baseline the compiled
   CSR kernel is measured against on the same graph. *)
let bench_scc =
  let g = Generators.circulant ~n:2000 ~k:3 in
  Test.make ~name:subject_scc_tree (Staged.stage (fun () ->
      ignore (Oracle.Scc.components g)))

(* Fresh [Csr.of_graph] each run (deliberately bypassing the handle
   memo), so the subject prices the full compile + array Tarjan and the
   speedup over the tree baseline is algorithmic, not cache warmth. *)
let bench_scc_csr =
  let g = Generators.circulant ~n:2000 ~k:3 in
  Test.make ~name:subject_scc_csr (Staged.stage (fun () ->
      ignore (Csr.scc_components (Csr.of_graph g))))

(* Reachability through the public API, memoized handle included: this
   is what a sink-oracle query pays after the first analysis of a
   graph. *)
let bench_reach_csr =
  let g = Generators.circulant ~n:2000 ~k:3 in
  Test.make ~name:subject_reach_csr (Staged.stage (fun () ->
      ignore (Traversal.reachable g 0)))

let bench_reach_tree =
  let g = Generators.circulant ~n:2000 ~k:3 in
  Test.make ~name:subject_reach_tree (Staged.stage (fun () ->
      ignore (Oracle.Traversal.reachable g 0)))

let bench_disjoint_paths =
  let g = Generators.random_k_osr ~seed:5 ~sink_size:20 ~non_sink:20 ~k:3 () in
  Test.make ~name:"menger/disjoint-paths n=40" (Staged.stage (fun () ->
      ignore (Connectivity.node_disjoint_paths g 39 0)))

(* The full Definition 6 check through the seed algorithms of
   test/oracle (the pre-CSR cost of this subject), and the CSR-backed
   public entry point. [is_k_osr] builds a fresh sink subgraph per run,
   so the handle memo only amortises the base graph, not the per-run
   work. *)
let bench_kosr_check =
  let g = Generators.random_k_osr ~seed:6 ~sink_size:8 ~non_sink:6 ~k:2 () in
  Test.make ~name:subject_kosr_tree (Staged.stage (fun () ->
      ignore (Oracle.Properties.is_k_osr g 2)))

let bench_kosr_csr =
  let g = Generators.random_k_osr ~seed:6 ~sink_size:8 ~non_sink:6 ~k:2 () in
  Test.make ~name:subject_kosr_csr (Staged.stage (fun () ->
      ignore (Properties.is_k_osr g 2)))

let subject_event_queue = "event-queue push+pop x1000"
let subject_event_heap = "event-heap/flat push+pop x1000"

let bench_event_queue =
  Test.make ~name:subject_event_queue (Staged.stage (fun () ->
      let q = Oracle.Event_queue.create () in
      for i = 0 to 999 do
        Oracle.Event_queue.push q ~time:(i * 7919 mod 1000) i
      done;
      let rec drain () =
        match Oracle.Event_queue.pop q with
        | Some _ -> drain ()
        | None -> ()
      in
      drain ()))

(* The engine's flat structure-of-arrays heap on the same workload as
   the generic queue above: the gap between the two subjects is the
   per-event allocation (entry record + payload block) the flat
   representation eliminates. *)
let bench_event_heap =
  Test.make ~name:subject_event_heap (Staged.stage (fun () ->
      let q = Simkit.Event_heap.create () in
      for i = 0 to 999 do
        Simkit.Event_heap.push_deliver q
          ~time:(i * 7919 mod 1000)
          ~src:1 ~dst:2 i
      done;
      let rec drain () = if Simkit.Event_heap.pop q then drain () in
      drain ()))

let bench_v_blocking =
  let n = 1000 in
  let sys = threshold_system n ((2 * n / 3) + 1) in
  let b = Pid.Set.of_range 1 ((n / 3) + 1) in
  Test.make ~name:"v-blocking/symbolic n=1000" (Staged.stage (fun () ->
      ignore (Fbqs.Quorum.is_v_blocking sys 1 b)))

let bench_sink_oracle =
  let g = Generators.random_k_osr ~seed:7 ~sink_size:30 ~non_sink:30 ~k:3 () in
  Test.make ~name:"sink-oracle/condensation n=60" (Staged.stage (fun () ->
      ignore (Cup.Sink_oracle.get_sink g 0)))

let bench_scp_small_instance =
  Test.make ~name:"scp/4-node-consensus (end-to-end)"
    (Staged.stage (fun () ->
         let sys = threshold_system 4 3 in
         ignore
           (Scp.Runner.run_cfg
              ~cfg:
                (let d = Scp.Runner.default_cfg in
                 { d with run = { d.run with seed = 1 } })
              ~system:sys
              ~peers_of:(fun _ -> Pid.Set.of_range 1 4)
              ~initial_value_of:(fun i -> Scp.Value.of_ints [ i ])
              ~fault_of:(fun _ -> None)
              ())))

let bench_blocking_cascade =
  let n = 200 in
  let sys = threshold_system n ((2 * n / 3) + 1) in
  let down = Pid.Set.of_range 1 (n / 3) in
  Test.make ~name:"analysis/blocking-cascade n=200" (Staged.stage (fun () ->
      ignore (Fbqs.Analysis.blocking_cascade sys ~down)))

let subject_dset_check = "dset/is_dset n=10"
let subject_dset_enum_baseline = "dset/is_dset-enum-baseline n=10"

(* The seed's dset intersection check, kept as the baseline the pruned
   minimal-quorum path is measured against: enumerate every quorum of
   the deleted system (2^n subset tests) and check all pairs. *)
let enum_baseline_is_dset sys b =
  Fbqs.Dset.quorum_availability_despite sys b
  &&
  let quorums = Fbqs.Quorum.enum_quorums (Fbqs.Dset.delete sys b) in
  List.for_all
    (fun q1 ->
      List.for_all
        (fun q2 -> not (Pid.Set.is_empty (Pid.Set.inter q1 q2)))
        quorums)
    quorums

let bench_dset_check =
  let sys = threshold_system 10 7 in
  let b = Pid.Set.of_range 1 2 in
  Test.make ~name:subject_dset_check (Staged.stage (fun () ->
      ignore (Fbqs.Dset.is_dset sys b)))

let bench_dset_enum_baseline =
  let sys = threshold_system 10 7 in
  let b = Pid.Set.of_range 1 2 in
  Test.make ~name:subject_dset_enum_baseline (Staged.stage (fun () ->
      ignore (enum_baseline_is_dset sys b)))

let subject_minq_bb = "analysis/min-quorums-bb n=10"
let subject_minq_gosper = "analysis/min-quorums-gosper-baseline n=10"

(* The branch-and-bound enumerator against the Gosper sweep it
   replaced, on the same 7-of-10 system (120 minimal quorums). *)
let bench_minq_bb =
  let sys = threshold_system 10 7 in
  Test.make ~name:subject_minq_bb (Staged.stage (fun () ->
      ignore (Fbqs.Enum.minimal_quorums (Fbqs.Enum.prepare sys))))

let bench_minq_gosper =
  let sys = threshold_system 10 7 in
  Test.make ~name:subject_minq_gosper (Staged.stage (fun () ->
      ignore (Fbqs.Quorum.minimal_quorums sys)))

(* A shrunk stellarbeat-like topology (same three-tier shape as the
   committed test/fixtures/live_network.fbas, scaled so one analysis
   fits a bechamel quota): what `fbas analyze` costs per phase at
   beyond-Gosper size. *)
let small_stellarbeat () =
  Fbqs.Topology.stellarbeat_like ~orgs:5 ~validators_per_org:2 ~mid:12
    ~leaves:24 ~seed:2 ()

let subject_minq_stellarbeat = "analysis/min-quorums-bb stellarbeat n=46"
let subject_inter_stellarbeat = "analysis/intersection-bb stellarbeat n=46"
let subject_blocking_stellarbeat = "analysis/blocking-sets-bb stellarbeat n=46"

let bench_analysis_minq_stellarbeat =
  let sys = small_stellarbeat () in
  Test.make ~name:subject_minq_stellarbeat
    (Staged.stage (fun () ->
         ignore (Fbqs.Enum.minimal_quorums (Fbqs.Enum.prepare sys))))

let bench_analysis_intersection_stellarbeat =
  let sys = small_stellarbeat () in
  Test.make ~name:subject_inter_stellarbeat
    (Staged.stage (fun () -> ignore (Fbqs.Enum.quorum_intersection sys)))

let bench_analysis_blocking_stellarbeat =
  let sys = small_stellarbeat () in
  Test.make ~name:subject_blocking_stellarbeat
    (Staged.stage (fun () ->
         ignore (Fbqs.Enum.minimal_blocking_sets (Fbqs.Enum.prepare sys))))

let subject_minq_parallel_stellarbeat =
  "analysis/min-quorums-parallel stellarbeat n=46"

let subject_blocking_parallel_stellarbeat =
  "analysis/blocking-parallel stellarbeat n=46"

let subject_splitting_stellarbeat =
  "analysis/splitting-sequential stellarbeat n=46"

let subject_splitting_parallel_stellarbeat =
  "analysis/splitting-parallel stellarbeat n=46"

(* The frontier-sharded searches against their own sequential rows on
   the same topology. On the CI 4-core runners the parallel rows run on
   a warm worker pool; on a 1-core machine they collapse to the inline
   path, so the pair also tracks the sharding overhead floor. *)
let bench_analysis_minq_parallel_stellarbeat =
  let sys = small_stellarbeat () in
  Test.make ~name:subject_minq_parallel_stellarbeat
    (Staged.stage (fun () ->
         ignore (Fbqs.Enum.minimal_quorums ~jobs:4 (Fbqs.Enum.prepare sys))))

let bench_analysis_blocking_parallel_stellarbeat =
  let sys = small_stellarbeat () in
  Test.make ~name:subject_blocking_parallel_stellarbeat
    (Staged.stage (fun () ->
         ignore
           (Fbqs.Enum.minimal_blocking_sets ~jobs:4 (Fbqs.Enum.prepare sys))))

let bench_analysis_splitting_stellarbeat =
  let sys = small_stellarbeat () in
  Test.make ~name:subject_splitting_stellarbeat
    (Staged.stage (fun () ->
         ignore
           (Fbqs.Enum.minimal_splitting_sets ~max_size:2
              (Fbqs.Enum.prepare sys))))

let bench_analysis_splitting_parallel_stellarbeat =
  let sys = small_stellarbeat () in
  Test.make ~name:subject_splitting_parallel_stellarbeat
    (Staged.stage (fun () ->
         ignore
           (Fbqs.Enum.minimal_splitting_sets ~max_size:2 ~jobs:4
              (Fbqs.Enum.prepare sys))))

let subject_exec_warm = "exec/map-warm-pool x32"
let subject_exec_cold = "exec/map-cold-spawn x32"

(* The persistent pool against the seed's spawn-per-call behaviour:
   the cold subject tears the pool down before every map, so each
   iteration pays worker startup exactly as every map did before the
   pool was made persistent. The workload is pure arithmetic — the gap
   between the rows is dispatch and spawn cost, nothing else. *)
let exec_spin x =
  let acc = ref x in
  for _ = 1 to 20_000 do
    acc := ((!acc * 1103515245) + 12345) land 0x3FFFFFFF
  done;
  !acc

let exec_inputs = List.init 32 Fun.id

let bench_exec_warm =
  Test.make ~name:subject_exec_warm
    (Staged.stage (fun () ->
         ignore (Simkit.Exec.map ~jobs:4 exec_spin exec_inputs)))

let bench_exec_cold =
  Test.make ~name:subject_exec_cold
    (Staged.stage (fun () ->
         Simkit.Exec.Pool.shutdown ();
         ignore (Simkit.Exec.map ~jobs:4 exec_spin exec_inputs)))

let subject_engine_send_notrace = "engine/send-notrace x1000"
let subject_engine_send_alloc = "engine/send-alloc-baseline x1000"

(* One engine run flooding 1000 messages from node 1 to node 2 with no
   trace sink attached. [legacy_alloc] replays the seed engine's
   per-event cost model on top of the tuned engine: a trace field list
   built (and the empty msg-field list appended) before discovering the
   sink was [None], a [Hashtbl.find_opt] to dispatch on the destination
   pid, and a fresh ctx record per delivery. The tuned engine skips all
   three, so the gap between the two subjects is the trace-off hot-path
   win. *)
let engine_flood ~legacy_alloc () =
  let eng =
    Simkit.Engine.create_cfg
      {
        Simkit.Run_config.default with
        delay = Some (Simkit.Delay.synchronous ~delta:1);
        max_time = 1_000_000;
      }
  in
  let legacy_nodes = Hashtbl.create 16 in
  Hashtbl.replace legacy_nodes 1 "sender";
  Hashtbl.replace legacy_nodes 2 "sink";
  let discard x = ignore (Sys.opaque_identity x) in
  let sender =
    {
      Simkit.Engine.idle_behavior with
      on_start =
        (fun ctx ->
          for i = 1 to 1000 do
            if legacy_alloc then
              discard
                ([
                   ("src", Obs.Json.Int 1);
                   ("dst", Obs.Json.Int 2);
                   ("at", Obs.Json.Int i);
                 ]
                @ []);
            Simkit.Engine.send ctx 2 i
          done);
    }
  in
  let sink =
    {
      Simkit.Engine.idle_behavior with
      on_message =
        (fun _ctx ~src payload ->
          if legacy_alloc then begin
            discard (Hashtbl.find_opt legacy_nodes 2);
            discard (ref payload);
            discard
              ([ ("src", Obs.Json.Int src); ("dst", Obs.Json.Int payload) ]
              @ [])
          end);
    }
  in
  Simkit.Engine.add_node eng 1 sender;
  Simkit.Engine.add_node eng 2 sink;
  ignore (Simkit.Engine.run eng)

let bench_engine_send_notrace =
  Test.make ~name:subject_engine_send_notrace
    (Staged.stage (fun () -> engine_flood ~legacy_alloc:false ()))

let bench_engine_send_alloc_baseline =
  Test.make ~name:subject_engine_send_alloc
    (Staged.stage (fun () -> engine_flood ~legacy_alloc:true ()))

let bench_parse_roundtrip =
  let g = Generators.random_k_osr ~seed:9 ~sink_size:40 ~non_sink:40 ~k:3 () in
  let text = Parse.to_string g in
  Test.make ~name:"parse/adjacency n=80" (Staged.stage (fun () ->
      ignore (Parse.of_string text)))

(* Built lazily inside [microbenches]: a 50k-vertex graph takes long
   enough to construct that the experiment-only modes must not pay for
   it at module initialisation. The subject doubles as the
   no-stack-overflow smoke test for the iterative array Tarjan. *)
let bench_scc_csr_large () =
  let g = Generators.circulant ~n:50_000 ~k:3 in
  Test.make ~name:"scc/csr circulant n=50000" (Staged.stage (fun () ->
      ignore (Csr.scc_components (Csr.of_graph g))))

let microbenches () =
  Test.make_grouped ~name:"kernels" ~fmt:"%s %s"
    [
      bench_is_quorum_symbolic;
      bench_is_quorum_tree_baseline;
      bench_inter_cardinal_dense;
      bench_inter_cardinal_tree;
      bench_is_quorum_explicit;
      bench_greatest_quorum;
      bench_scc;
      bench_scc_csr;
      bench_scc_csr_large ();
      bench_reach_csr;
      bench_reach_tree;
      bench_disjoint_paths;
      bench_kosr_check;
      bench_kosr_csr;
      bench_event_queue;
      bench_event_heap;
      bench_v_blocking;
      bench_sink_oracle;
      bench_scp_small_instance;
      bench_blocking_cascade;
      bench_dset_check;
      bench_dset_enum_baseline;
      bench_minq_bb;
      bench_minq_gosper;
      bench_analysis_minq_stellarbeat;
      bench_analysis_intersection_stellarbeat;
      bench_analysis_blocking_stellarbeat;
      bench_analysis_minq_parallel_stellarbeat;
      bench_analysis_blocking_parallel_stellarbeat;
      bench_analysis_splitting_stellarbeat;
      bench_analysis_splitting_parallel_stellarbeat;
      bench_exec_warm;
      bench_exec_cold;
      bench_engine_send_notrace;
      bench_engine_send_alloc_baseline;
      bench_parse_roundtrip;
    ]

(* ---- machine-readable bench results ---------------------------------- *)

let bench_json_file = "BENCH_quorum.json"
let analysis_json_file = "BENCH_analysis.json"

(* The analyzer subjects live in their own committed file so the
   analysis-engine perf trajectory is legible on its own;
   [check-regress] covers both files. The pre-existing
   analysis/blocking-cascade subject predates the split and stays in
   BENCH_quorum.json. *)
let analysis_subjects =
  [
    subject_minq_bb;
    subject_minq_gosper;
    subject_minq_stellarbeat;
    subject_inter_stellarbeat;
    subject_blocking_stellarbeat;
    subject_minq_parallel_stellarbeat;
    subject_blocking_parallel_stellarbeat;
    subject_splitting_stellarbeat;
    subject_splitting_parallel_stellarbeat;
  ]

let strip_group name =
  let prefix = "kernels " in
  if String.length name > String.length prefix
     && String.sub name 0 (String.length prefix) = prefix
  then String.sub name (String.length prefix)
         (String.length name - String.length prefix)
  else name

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* The commit the numbers were measured at, so a BENCH_quorum.json in
   isolation still says what it describes. Wall-clock-free: a git SHA
   is repository state, not time, and [check-experiments] does not
   involve this file. *)
let git_sha () =
  match Unix.open_process_in "git rev-parse HEAD 2>/dev/null" with
  | exception Unix.Unix_error _ -> "unknown"
  | ic ->
      let line = try input_line ic with End_of_file -> "" in
      ignore (Unix.close_process_in ic);
      if String.length line = 40 then line else "unknown"

(* Message/transition counts of one instrumented 4-node SCP run at a
   fixed seed. Unlike the timing rows these are exact and
   deterministic, so diffs in BENCH_quorum.json catch protocol
   behaviour drift, not just performance drift. *)
let scp_run_counters () =
  let metrics = Obs.Metrics.create () in
  let cfg =
    {
      Scp.Runner.default_cfg with
      run = { Simkit.Run_config.default with seed = 1; metrics = Some metrics };
    }
  in
  let sys = threshold_system 4 3 in
  ignore
    (Scp.Runner.run_cfg ~cfg ~system:sys
       ~peers_of:(fun _ -> Pid.Set.of_range 1 4)
       ~initial_value_of:(fun i -> Scp.Value.of_ints [ i ])
       ~fault_of:(fun _ -> None)
       ());
  Obs.Json.to_string (Obs.Metrics.to_json metrics)

(* [rows]: (subject, ns/run) sorted by subject. The comparisons pit the
   dense bitset kernel against the seed's tree-set path on the same
   workload; [speedup] > 1 means the dense kernel is faster. *)
let write_analysis_json rows =
  let find name = List.assoc_opt name rows in
  let comparisons =
    List.filter_map
      (fun (subject, baseline) ->
        match (find subject, find baseline) with
        | Some s, Some b when s > 0. && not (Float.is_nan b) ->
            Some (subject, baseline, b /. s)
        | _ -> None)
      [
        (subject_minq_bb, subject_minq_gosper);
        (subject_minq_parallel_stellarbeat, subject_minq_stellarbeat);
        (subject_blocking_parallel_stellarbeat, subject_blocking_stellarbeat);
        (subject_splitting_parallel_stellarbeat, subject_splitting_stellarbeat);
      ]
  in
  let oc = open_out analysis_json_file in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"schema\": \"stellar-cup/bench-analysis/v1\",\n";
  out "  \"git_sha\": \"%s\",\n" (json_escape (git_sha ()));
  out "  \"unit\": \"ns_per_run\",\n";
  out "  \"subjects\": [\n";
  List.iteri
    (fun i (name, ns) ->
      out "    {\"name\": \"%s\", \"ns_per_run\": %.2f}%s\n"
        (json_escape name) ns
        (if i = List.length rows - 1 then "" else ","))
    rows;
  out "  ],\n";
  out "  \"comparisons\": [\n";
  List.iteri
    (fun i (subject, baseline, speedup) ->
      out
        "    {\"subject\": \"%s\", \"baseline\": \"%s\", \"speedup\": %.2f}%s\n"
        (json_escape subject) (json_escape baseline) speedup
        (if i = List.length comparisons - 1 then "" else ","))
    comparisons;
  out "  ]\n";
  out "}\n";
  close_out oc;
  List.iter
    (fun (subject, baseline, speedup) ->
      Format.printf "speedup: %s is %.1fx the %s path@." subject speedup
        baseline)
    comparisons;
  Format.printf "results written to %s@." analysis_json_file

let write_bench_json all_rows =
  let analysis_rows, rows =
    List.partition (fun (name, _) -> List.mem name analysis_subjects) all_rows
  in
  let find name = List.assoc_opt name rows in
  let comparisons =
    List.filter_map
      (fun (subject, baseline) ->
        match (find subject, find baseline) with
        | Some s, Some b when s > 0. && not (Float.is_nan b) ->
            Some (subject, baseline, b /. s)
        | _ -> None)
      [
        (subject_is_quorum_symbolic, subject_is_quorum_tree);
        (subject_inter_cardinal_dense, subject_inter_cardinal_tree);
        (subject_dset_check, subject_dset_enum_baseline);
        (subject_engine_send_notrace, subject_engine_send_alloc);
        (subject_exec_warm, subject_exec_cold);
        (subject_event_heap, subject_event_queue);
        (subject_scc_csr, subject_scc_tree);
        (subject_reach_csr, subject_reach_tree);
        (subject_kosr_csr, subject_kosr_tree);
      ]
  in
  let oc = open_out bench_json_file in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"schema\": \"stellar-cup/bench-quorum/v1\",\n";
  out "  \"git_sha\": \"%s\",\n" (json_escape (git_sha ()));
  out "  \"unit\": \"ns_per_run\",\n";
  out "  \"subjects\": [\n";
  List.iteri
    (fun i (name, ns) ->
      out "    {\"name\": \"%s\", \"ns_per_run\": %.2f}%s\n"
        (json_escape name) ns
        (if i = List.length rows - 1 then "" else ","))
    rows;
  out "  ],\n";
  out "  \"comparisons\": [\n";
  List.iteri
    (fun i (subject, baseline, speedup) ->
      out
        "    {\"subject\": \"%s\", \"baseline\": \"%s\", \"speedup\": %.2f}%s\n"
        (json_escape subject) (json_escape baseline) speedup
        (if i = List.length comparisons - 1 then "" else ","))
    comparisons;
  out "  ],\n";
  out "  \"counters\": {\"scp_4node_seed1\": %s}\n" (scp_run_counters ());
  out "}\n";
  close_out oc;
  List.iter
    (fun (subject, baseline, speedup) ->
      Format.printf "speedup: %s is %.1fx the %s path@." subject speedup
        baseline)
    comparisons;
  Format.printf "results written to %s@." bench_json_file;
  write_analysis_json analysis_rows

let measure_rows () =
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:None () in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] (microbenches ()) in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  (* lint: allow D1 — rows are List.sorted below before rendering *)
  Hashtbl.iter
    (fun name ols_result ->
      let ns =
        match Analyze.OLS.estimates ols_result with
        | Some (x :: _) -> x
        | _ -> nan
      in
      rows := (strip_group name, ns) :: !rows)
    results;
  List.sort compare !rows

let human_ns ns =
  if Float.is_nan ns then "n/a"
  else if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
  else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
  else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
  else Printf.sprintf "%.0f ns" ns

let run_microbenches () =
  let rows = measure_rows () in
  Format.printf "== Microbenches (Bechamel, monotonic clock) ==@.";
  Format.printf "%-45s  %s@." "kernel" "time/run";
  Format.printf "%s@." (String.make 65 '-');
  List.iter
    (fun (name, ns) -> Format.printf "%-45s  %s@." name (human_ns ns))
    rows;
  Format.printf "@.";
  write_bench_json rows

(* ---- experiment tables ----------------------------------------------- *)

let experiments_markdown ~jobs () =
  let tables = Stellar_cup.Experiments.all ~seed:1 ~jobs () in
  String.concat "" (List.map Stellar_cup.Report.to_markdown tables)

let run_experiments ~markdown ~jobs =
  if markdown then print_string (experiments_markdown ~jobs ())
  else
    List.iter Stellar_cup.Report.print
      (Stellar_cup.Experiments.all ~seed:1 ~jobs ())

(* EXPERIMENTS.md is prose down to this marker line, generated tables
   below it; regeneration only touches the generated part, and the
   output is deterministic (seeded experiments, no wall-clock values),
   so CI can demand the committed file be reproducible byte-for-byte. *)
let experiments_file = "EXPERIMENTS.md"

let experiments_marker = "# Generated tables"

let read_file path =
  let ic =
    try open_in_bin path
    with Sys_error msg ->
      Printf.eprintf
        "error: %s (run from the repository root, where %s lives)\n" msg
        experiments_file;
      exit 2
  in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let split_at_marker contents =
  let marker = experiments_marker ^ "\n" in
  let rec find i =
    if i + String.length marker > String.length contents then None
    else if
      String.sub contents i (String.length marker) = marker
      && (i = 0 || contents.[i - 1] = '\n')
    then Some (i + String.length marker)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some stop ->
      Some
        ( String.sub contents 0 stop,
          String.sub contents stop (String.length contents - stop) )

let regen_experiments ~jobs =
  match split_at_marker (read_file experiments_file) with
  | None ->
      Printf.eprintf "error: no '%s' marker in %s\n" experiments_marker
        experiments_file;
      exit 2
  | Some (head, _) ->
      let oc = open_out_bin experiments_file in
      output_string oc head;
      output_string oc "\n";
      output_string oc (experiments_markdown ~jobs ());
      close_out oc;
      Printf.printf "%s regenerated\n" experiments_file

let check_experiments ~jobs =
  match split_at_marker (read_file experiments_file) with
  | None ->
      Printf.eprintf "error: no '%s' marker in %s\n" experiments_marker
        experiments_file;
      exit 2
  | Some (_, committed) ->
      let expected = "\n" ^ experiments_markdown ~jobs () in
      if String.equal committed expected then
        Printf.printf "%s is up to date\n" experiments_file
      else begin
        Printf.eprintf
          "error: %s is stale — run `dune exec bench/main.exe -- \
           regen-experiments` and commit the result\n"
          experiments_file;
        exit 1
      end

(* ---- sweep workloads -------------------------------------------------- *)

let sweep_json_file = "BENCH_sweep.json"

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Larger-than-default sample counts so each experiment runs long enough
   to amortise per-dispatch executor overhead. Every entry is rerun
   sequentially and in parallel and the two rendered tables are
   byte-compared — a sweep run doubles as a determinism gate. *)
let sweep_experiments =
  [
    ( "e3",
      12,
      fun ~jobs ->
        Stellar_cup.Experiments.e3_theorem2_violation ~seed:1 ~samples:12
          ~jobs () );
    ( "e5",
      12,
      fun ~jobs ->
        Stellar_cup.Experiments.e5_availability ~seed:3 ~samples:12 ~jobs () );
    ( "e6",
      8,
      fun ~jobs ->
        Stellar_cup.Experiments.e6_sink_detector ~seed:4 ~samples:8 ~jobs () );
    ( "e8",
      8,
      fun ~jobs ->
        Stellar_cup.Experiments.e8_pipelines ~seed:6 ~samples:8 ~jobs () );
  ]

(* ---- bench regression gate ------------------------------------------- *)

let find_sub hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i =
    if i + nl > hl then None
    else if String.sub hay i nl = needle then Some (i + nl)
    else go (i + 1)
  in
  go 0

(* Parses named rows back out of our own writers' output (one object
   per line, both keys present): a hand-rolled scan keeps the harness
   free of a JSON dependency. [value_key] selects the numeric field —
   ["ns_per_run"] for the microbench files, ["sequential_s"] for the
   sweep file. *)
let parse_named_rows ~value_key contents =
  let value_needle = Printf.sprintf "\"%s\": " value_key in
  String.split_on_char '\n' contents
  |> List.filter_map (fun line ->
         match find_sub line "\"name\": \"" with
         | None -> None
         | Some ns -> (
             match String.index_from_opt line ns '"' with
             | None -> None
             | Some ne -> (
                 let name = String.sub line ns (ne - ns) in
                 match find_sub line value_needle with
                 | None -> None
                 | Some vs -> (
                     let ve = ref vs in
                     while
                       !ve < String.length line
                       &&
                       match line.[!ve] with
                       | '0' .. '9' | '.' | '-' | '+' | 'e' -> true
                       | _ -> false
                     do
                       incr ve
                     done;
                     match float_of_string_opt (String.sub line vs (!ve - vs)) with
                     | Some v -> Some (name, v)
                     | None -> None))))

(* Re-measures the microbenches (and the sweep experiments' sequential
   legs) and compares each subject against the committed
   BENCH_quorum.json / BENCH_analysis.json / BENCH_sweep.json, failing
   on any slowdown beyond the tolerance. The committed files are read
   before anything is measured and are never rewritten here, so the
   gate can run in CI ahead of the [micro] and [sweep] modes that
   regenerate them. *)
let check_regress ~tolerance =
  let rows_of ~value_key file =
    match open_in_bin file with
    | exception Sys_error msg ->
        Printf.eprintf "error: %s\n" msg;
        exit 2
    | ic ->
        let n = in_channel_length ic in
        let s = really_input_string ic n in
        close_in ic;
        let subjects = parse_named_rows ~value_key s in
        if subjects = [] then begin
          Printf.eprintf "error: no subjects found in %s\n" file;
          exit 2
        end;
        subjects
  in
  let subjects_of = rows_of ~value_key:"ns_per_run" in
  let committed =
    subjects_of bench_json_file @ subjects_of analysis_json_file
  in
  let sweep_committed = rows_of ~value_key:"sequential_s" sweep_json_file in
  let regressions = ref 0 in
  (* The sweep file tracks wall-clock seconds, not ns/run: re-run each
     committed experiment's sequential leg once and hold it to the same
     tolerance. The parallel columns are runner-shape-dependent (core
     count), so only the sequential baseline is gated here — the
     speedup floor lives in the CI sweep-gate job. Measured *before*
     the Bechamel phase: re-measuring dozens of microbench subjects
     leaves a bloated major heap that slows the sweep legs several
     times over. *)
  Format.printf "== check-regress: sweep sequential legs vs %s ==@."
    sweep_json_file;
  List.iter
    (fun (name, old_s) ->
      match
        List.find_opt (fun (n, _, _) -> String.equal n name) sweep_experiments
      with
      | None ->
          Format.printf "?       %-45s committed but not a known sweep \
                         experiment@."
            name
      | Some _ when old_s <= 0. ->
          Format.printf "?       %-45s not comparable@." name
      | Some (_, _, run) ->
          let _, s = timed (fun () -> run ~jobs:1) in
          let ratio = s /. old_s in
          let ok = ratio <= 1. +. tolerance in
          if not ok then incr regressions;
          Format.printf "%-7s %-45s %.2fs -> %.2fs (%.2fx)@."
            (if ok then "ok" else "REGRESS")
            name old_s s ratio)
    sweep_committed;
  Format.printf
    "== check-regress: tolerance +%.0f%% over committed %s + %s ==@."
    (tolerance *. 100.) bench_json_file analysis_json_file;
  let rows = measure_rows () in
  List.iter
    (fun (name, old_ns) ->
      match List.assoc_opt name rows with
      | None ->
          Format.printf "?       %-45s committed but not measured@." name
      | Some ns when Float.is_nan ns || Float.is_nan old_ns || old_ns <= 0. ->
          Format.printf "?       %-45s not comparable@." name
      | Some ns ->
          let ratio = ns /. old_ns in
          let ok = ratio <= 1. +. tolerance in
          if not ok then incr regressions;
          Format.printf "%-7s %-45s %s -> %s (%.2fx)@."
            (if ok then "ok" else "REGRESS")
            name (human_ns old_ns) (human_ns ns) ratio)
    committed;
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name committed) then
        Format.printf "new     %-45s no committed number yet@." name)
    rows;
  if !regressions > 0 then begin
    Printf.eprintf
      "error: %d subject(s) slowed down beyond +%.0f%% — investigate, or \
       rerun `dune exec bench/main.exe -- micro` and commit the refreshed \
       %s\n"
      !regressions (tolerance *. 100.) bench_json_file;
    exit 1
  end
  else Format.printf "no regressions beyond +%.0f%%@." (tolerance *. 100.)

(* ---- sequential-vs-parallel sweep timings ---------------------------- *)

let run_sweep ~jobs =
  Format.printf "== Sweep executor: sequential vs --jobs %d ==@." jobs;
  let rows =
    List.map
      (fun (name, samples, run) ->
        let seq, seq_s = timed (fun () -> run ~jobs:1) in
        let par, par_s = timed (fun () -> run ~jobs) in
        if
          not
            (String.equal
               (Stellar_cup.Report.to_markdown seq)
               (Stellar_cup.Report.to_markdown par))
        then begin
          Printf.eprintf
            "error: %s with --jobs %d diverges from the sequential run\n" name
            jobs;
          exit 1
        end;
        Format.printf
          "%-4s samples=%-3d seq %6.2fs  jobs=%d %6.2fs  speedup %.2fx@." name
          samples seq_s jobs par_s (seq_s /. par_s);
        (name, samples, seq_s, par_s))
      sweep_experiments
  in
  let oc = open_out sweep_json_file in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"schema\": \"stellar-cup/bench-sweep/v1\",\n";
  out "  \"git_sha\": \"%s\",\n" (json_escape (git_sha ()));
  out "  \"jobs\": %d,\n" jobs;
  (* [n = 2] stands for "any parallel-sized input": the backend choice
     only depends on whether jobs and n both exceed 1. *)
  out "  \"backend\": \"%s\",\n"
    (json_escape (Simkit.Exec.backend_name (Simkit.Exec.backend ~jobs 2)));
  out "  \"unit\": \"seconds_wall_clock\",\n";
  out "  \"experiments\": [\n";
  List.iteri
    (fun i (name, samples, seq_s, par_s) ->
      out
        "    {\"name\": \"%s\", \"samples\": %d, \"sequential_s\": %.3f, \
         \"parallel_s\": %.3f, \"speedup\": %.2f, \"identical\": true}%s\n"
        (json_escape name) samples seq_s par_s (seq_s /. par_s)
        (if i = List.length rows - 1 then "" else ","))
    rows;
  out "  ]\n";
  out "}\n";
  close_out oc;
  Format.printf "results written to %s@." sweep_json_file

(* ---- main ------------------------------------------------------------ *)

let () =
  let jobs = ref None in
  let tolerance = ref 0.5 in
  let positional = ref [] in
  let i = ref 1 in
  while !i < Array.length Sys.argv do
    (match Sys.argv.(!i) with
    | "--jobs" when !i + 1 < Array.length Sys.argv ->
        incr i;
        jobs :=
          Some
            (try int_of_string Sys.argv.(!i)
             with Failure _ ->
               Printf.eprintf "error: --jobs expects an integer\n";
               exit 2)
    | "--tolerance" when !i + 1 < Array.length Sys.argv ->
        incr i;
        tolerance :=
          (match float_of_string_opt Sys.argv.(!i) with
          | Some t when t >= 0. -> t
          | _ ->
              Printf.eprintf "error: --tolerance expects a float >= 0\n";
              exit 2)
    | a -> positional := a :: !positional);
    incr i
  done;
  let mode = match List.rev !positional with m :: _ -> m | [] -> "all" in
  (* Precedence mirrors the CLI: an explicit --jobs wins, then
     STELLAR_CUP_JOBS, then the mode's own default. *)
  let jobs_or default =
    let default =
      Option.value ~default (Simkit.Exec.jobs_from_env ())
    in
    max 1 (Option.value ~default !jobs)
  in
  match mode with
  | "exp" -> run_experiments ~markdown:false ~jobs:(jobs_or 1)
  | "markdown" -> run_experiments ~markdown:true ~jobs:(jobs_or 1)
  | "regen-experiments" -> regen_experiments ~jobs:(jobs_or 1)
  | "check-experiments" -> check_experiments ~jobs:(jobs_or 1)
  | "micro" -> run_microbenches ()
  | "check-regress" -> check_regress ~tolerance:!tolerance
  | "sweep" -> run_sweep ~jobs:(jobs_or 4)
  | _ ->
      run_experiments ~markdown:false ~jobs:(jobs_or 1);
      run_microbenches ()
