(* Benchmark harness.

   Usage:
     dune exec bench/main.exe -- micro   -- bechamel microbenches
                                            (writes BENCH_quorum.json and
                                            BENCH_analysis.json)
     dune exec bench/main.exe -- sweep [--jobs N]
                                         -- sequential-vs-parallel sweep
                                            timings (writes
                                            BENCH_sweep.json)
     dune exec bench/main.exe -- check-regress [--tolerance R]
                                         -- re-measure the microbenches
                                            and the sweep sequential
                                            legs; exit 1 if any
                                            committed BENCH_quorum.json,
                                            BENCH_analysis.json or
                                            BENCH_sweep.json subject
                                            slowed down by more than R
                                            (default 0.5, i.e. +50%)

   sweep farms experiment samples out to Simkit.Exec with --jobs N
   workers (default 4) — a pool of N domains on OCaml 5, N forked
   worker processes otherwise. When --jobs is absent, STELLAR_CUP_JOBS
   supplies the default (the same precedence as every CLI --jobs flag).
   The tables are byte-identical for every N and on either backend.

   Bechamel microbenches for the hot kernels every experiment leans on,
   persisted machine-readably to BENCH_quorum.json so the quorum-kernel
   perf trajectory is tracked across PRs; BENCH_sweep.json tracks the
   wall-clock win of the parallel sweep executor. The experiment tables
   themselves are pinned in EXPERIMENTS.md and checked by `dune
   runtest` (test/pins/dune). *)

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

(* Fresh [Csr.of_graph] each run, so the subject prices the full
   compile + array Tarjan and the speedup over the tree baseline is
   algorithmic. *)
let bench_scc_csr =
  let g = Generators.circulant ~n:2000 ~k:3 in
  Test.make ~name:subject_scc_csr (Staged.stage (fun () ->
      ignore (Csr.scc_components (Csr.of_graph g))))

(* Reachability through the public API, which compiles the graph on
   every call: the compile plus one BFS. *)
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
   public entry point, which compiles the graph and its sink subgraph
   once per call. *)
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

(* The engine's flat radix heap on the same workload as the generic
   queue above: 1,000 distinct times, all pushed before the first pop.
   The gap between the two subjects is the per-event allocation (entry
   record + payload block) the flat representation eliminates, plus
   the sifting a radix heap does not do. *)
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

let subject_event_queue_engine = "event-queue/engine-shape 9750 pending x1000"
let subject_event_heap_engine = "event-heap/engine-shape 9750 pending x1000"

(* The queue as an SCP sweep drives it at its high water: ~9,750 events
   pending (sweep's [engine.queue_high_water]) over the next 12 ticks,
   ~800 per tick, and each popped event scheduling one more 1 to 12
   ticks ahead (before GST a delay reaches gst + delta - now; a seed-1
   run of sweep's shape peaks at t = 43 with 9,512 pending 1-12 ticks
   ahead). Each subject keeps its queue across runs, so a run is 1,000
   steady-state pops and pushes, and both subjects replay the same
   sequence. *)
let engine_shape_pending = 9_750
let engine_shape_per_tick = 813
let engine_shape_delay k = 1 + (k * 7919 mod 12)

let bench_event_queue_engine =
  let q = Oracle.Event_queue.create () in
  for i = 0 to engine_shape_pending - 1 do
    Oracle.Event_queue.push q ~time:(1 + (i / engine_shape_per_tick)) i
  done;
  let k = ref 0 in
  Test.make ~name:subject_event_queue_engine (Staged.stage (fun () ->
      for _ = 1 to 1000 do
        match Oracle.Event_queue.pop q with
        | Some (now, _) ->
            incr k;
            Oracle.Event_queue.push q ~time:(now + engine_shape_delay !k) !k
        | None -> ()
      done))

let bench_event_heap_engine =
  let q = Simkit.Event_heap.create () in
  for i = 0 to engine_shape_pending - 1 do
    Simkit.Event_heap.push_deliver q
      ~time:(1 + (i / engine_shape_per_tick))
      ~src:1 ~dst:2 i
  done;
  let k = ref 0 in
  Test.make ~name:subject_event_heap_engine (Staged.stage (fun () ->
      for _ = 1 to 1000 do
        if Simkit.Event_heap.pop q then begin
          let now = Simkit.Event_heap.time q in
          incr k;
          Simkit.Event_heap.push_deliver q
            ~time:(now + engine_shape_delay !k)
            ~src:1 ~dst:2 !k
        end
      done))

let bench_v_blocking =
  let n = 1000 in
  let sys = threshold_system n ((2 * n / 3) + 1) in
  let b = Pid.Set.of_range 1 ((n / 3) + 1) in
  Test.make ~name:"v-blocking/symbolic n=1000" (Staged.stage (fun () ->
      ignore (Oracle.Quorum.is_v_blocking sys 1 b)))

let bench_sink_oracle =
  let g = Generators.random_k_osr ~seed:7 ~sink_size:30 ~non_sink:30 ~k:3 () in
  Test.make ~name:"sink-oracle/condensation n=60" (Staged.stage (fun () ->
      ignore (Cup.Sink_oracle.get_sink g 0)))

(* The Cup layer on one f = 2 graph of 12 + 12 processes: Algorithm 3
   as perfbench's discover workload runs it (its random faulty set
   silent), and E7's synchronous flood alone. *)
let cup_f = 2

let cup_graph () =
  fst
    (Generators.random_byzantine_safe ~seed:1 ~f:cup_f ~sink_size:12
       ~non_sink:12 ())

let bench_sink_detector =
  let g = cup_graph () in
  let faulty = Generators.random_faulty_set ~seed:1 ~f:cup_f g in
  let fault_of i =
    if Pid.Set.mem i faulty then Some Cup.Sink_protocol.Silent else None
  in
  let cfg = { Cup.Sink_protocol.default_run_config with seed = 1 } in
  Test.make ~name:"cup/sink-detector random 12+12 f=2"
    (Staged.stage (fun () ->
         ignore
           (Cup.Sink_protocol.run_cfg ~cfg ~graph:g ~f:cup_f ~fault_of ())))

let bench_rbcast_flood =
  let g = cup_graph () in
  Test.make ~name:"rbcast/flood random 12+12 f=2" (Staged.stage (fun () ->
      ignore (Stellar_cup.Experiments.rb_drive ~f:cup_f g)))

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
  let c = Fbqs.Quorum.Compiled.compile (threshold_system n ((2 * n / 3) + 1)) in
  let down = Pid.Set.of_range 1 (n / 3) in
  Test.make ~name:"analysis/blocking-cascade n=200" (Staged.stage (fun () ->
      ignore (Fbqs.Analysis.blocking_cascade c ~down)))

let subject_dset_check = "dset/is_dset n=10"
let subject_dset_enum_baseline = "dset/is_dset-enum-baseline n=10"

(* The seed's dset intersection check, kept as the baseline the pruned
   minimal-quorum path is measured against: enumerate every quorum of
   the deleted system (2^n subset tests) and check all pairs. *)
let enum_baseline_is_dset sys b =
  Fbqs.Dset.quorum_availability_despite sys b
  &&
  let quorums = Fbqs.Quorum.enum_quorums (Oracle.Quorum.delete sys b) in
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
   enough to construct that the sweep mode must not pay for it at
   module initialisation. The subject doubles as the
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
      bench_event_queue_engine;
      bench_event_heap_engine;
      bench_v_blocking;
      bench_sink_oracle;
      bench_sink_detector;
      bench_rbcast_flood;
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

(* The commit the numbers were measured at, so a BENCH_quorum.json in
   isolation still says what it describes. Wall-clock-free: a git SHA
   is repository state, not time. *)
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

(* The comparisons CI's bench job holds to a speedup floor. One
   estimate of each side, taken seconds apart on a shared VM, is too
   noisy to gate: unchanged code read 4.87 and 4.91 against the 5.0
   floor of the circulant SCC pair in two of nine runs. So each gated
   pair is measured in [gate_rounds] rounds of subject and baseline
   back to back, alternating which goes first, and its speedup is the
   median of the rounds' ratios. *)
let gated_pairs =
  [
    (bench_is_quorum_symbolic, bench_is_quorum_tree_baseline);
    (bench_scc_csr, bench_scc);
    (bench_exec_warm, bench_exec_cold);
    (bench_analysis_minq_parallel_stellarbeat, bench_analysis_minq_stellarbeat);
  ]

let gate_rounds = 7

let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]

let ols_ns result =
  match Analyze.OLS.estimates result with Some (x :: _) -> x | _ -> nan

(* One Bechamel estimate of a single-subject test, in ns per run. *)
let estimate test =
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:None () in
  match Test.elements test with
  | [ elt ] ->
      ols_ns
        (Analyze.one ols Instance.monotonic_clock
           (Benchmark.run cfg [ Instance.monotonic_clock ] elt))
  | _ -> nan

let median xs =
  let a = Array.of_list (List.sort Float.compare xs) in
  a.(Array.length a / 2)

(* (subject, baseline, median speedup, rounds) for each gated pair. *)
let gated_speedups () =
  List.map
    (fun (s_test, b_test) ->
      let ratios =
        List.init gate_rounds (fun round ->
            let s, b =
              if round mod 2 = 0 then
                let s = estimate s_test in
                (s, estimate b_test)
              else
                let b = estimate b_test in
                (estimate s_test, b)
            in
            b /. s)
      in
      (Test.name s_test, Test.name b_test, median ratios, gate_rounds))
    gated_pairs

(* Writes one committed microbench file: its [schema], the [rows]
   ((subject, ns/run), sorted by subject), a comparison per
   (subject, baseline) pair in [pairs] that has both rows ([speedup] > 1
   means the subject is faster), then the already-rendered [extra]
   sections. A pair in [gated] takes its median speedup from there
   instead and records its rounds. One object per line, so diffs stay
   legible. A row Bechamel could not estimate is written as [null]. *)
let write_rows_json ~file ~schema ~pairs ~gated ?(extra = []) rows =
  let find name = List.assoc_opt name rows in
  let comparisons =
    List.filter_map
      (fun (subject, baseline) ->
        match
          List.find_opt
            (fun (s, b, _, _) ->
              String.equal s subject && String.equal b baseline)
            gated
        with
        | Some (_, _, speedup, rounds) ->
            Some (subject, baseline, speedup, Some rounds)
        | None -> (
            match (find subject, find baseline) with
            | Some s, Some b when s > 0. && not (Float.is_nan b) ->
                Some (subject, baseline, b /. s, None)
            | _ -> None))
      pairs
  in
  let oc = open_out file in
  let out fmt = Printf.fprintf oc fmt in
  let sep i l = if i = List.length l - 1 then "" else "," in
  out "{\n";
  out "  \"schema\": \"%s\",\n" schema;
  out "  \"git_sha\": \"%s\",\n" (Obs.Json.escape (git_sha ()));
  out "  \"unit\": \"ns_per_run\",\n";
  out "  \"subjects\": [\n";
  List.iteri
    (fun i (name, ns) ->
      out "    {\"name\": \"%s\", \"ns_per_run\": %s}%s\n"
        (Obs.Json.escape name)
        (if Float.is_nan ns then "null" else Printf.sprintf "%.2f" ns)
        (sep i rows))
    rows;
  out "  ],\n";
  out "  \"comparisons\": [\n";
  List.iteri
    (fun i (subject, baseline, speedup, rounds) ->
      out
        "    {\"subject\": \"%s\", \"baseline\": \"%s\", \"speedup\": \
         %.2f%s}%s\n"
        (Obs.Json.escape subject) (Obs.Json.escape baseline) speedup
        (match rounds with
        | Some n -> Printf.sprintf ", \"median_of_rounds\": %d" n
        | None -> "")
        (sep i comparisons))
    comparisons;
  out "  ]";
  List.iter (fun (key, json) -> out ",\n  \"%s\": %s" key json) extra;
  out "\n}\n";
  close_out oc;
  List.iter
    (fun (subject, baseline, speedup, _) ->
      Format.printf "speedup: %s is %.1fx the %s path@." subject speedup
        baseline)
    comparisons;
  Format.printf "results written to %s@." file

(* The comparisons pit each fast path against the seed path it
   replaced (or a parallel row against its sequential twin) on the same
   workload. *)
let write_bench_json all_rows =
  let analysis_rows, rows =
    List.partition (fun (name, _) -> List.mem name analysis_subjects) all_rows
  in
  let gated = gated_speedups () in
  write_rows_json ~file:bench_json_file ~schema:"stellar-cup/bench-quorum/v1"
    ~gated ~pairs:
      [
        (subject_is_quorum_symbolic, subject_is_quorum_tree);
        (subject_inter_cardinal_dense, subject_inter_cardinal_tree);
        (subject_dset_check, subject_dset_enum_baseline);
        (subject_engine_send_notrace, subject_engine_send_alloc);
        (subject_exec_warm, subject_exec_cold);
        (subject_event_heap, subject_event_queue);
        (subject_event_heap_engine, subject_event_queue_engine);
        (subject_scc_csr, subject_scc_tree);
        (subject_reach_csr, subject_reach_tree);
        (subject_kosr_csr, subject_kosr_tree);
      ]
    ~extra:
      [
        ( "counters",
          Printf.sprintf "{\"scp_4node_seed1\": %s}" (scp_run_counters ()) );
      ]
    rows;
  write_rows_json ~file:analysis_json_file
    ~schema:"stellar-cup/bench-analysis/v1" ~gated
    ~pairs:
      [
        (subject_minq_bb, subject_minq_gosper);
        (subject_minq_parallel_stellarbeat, subject_minq_stellarbeat);
        (subject_blocking_parallel_stellarbeat, subject_blocking_stellarbeat);
        (subject_splitting_parallel_stellarbeat, subject_splitting_stellarbeat);
      ]
    analysis_rows

let measure_rows () =
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:None () in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] (microbenches ()) in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  (* lint: allow D1 — rows are List.sorted below before rendering *)
  Hashtbl.iter
    (fun name ols_result ->
      rows := (strip_group name, ols_ns ols_result) :: !rows)
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

(* The named rows of a committed BENCH file: [(name, value)] for each
   object of its [section] list, [value_key] selecting the number
   (["ns_per_run"] in the microbench files' ["subjects"],
   ["sequential_s"] in the sweep file's ["experiments"]). A row without
   a number (a [null] estimate) is skipped. *)
let named_rows ~section ~value_key contents =
  let open Obs.Json in
  let number = function
    | Float v -> Some v
    | Int v -> Some (float_of_int v)
    | _ -> None
  in
  match of_string contents with
  | Error e -> Error e
  | Ok (Obj fields) -> (
      match List.assoc_opt section fields with
      | Some (List rows) ->
          Ok
            (List.filter_map
               (function
                 | Obj row -> (
                     match
                       (List.assoc_opt "name" row, List.assoc_opt value_key row)
                     with
                     | Some (String name), Some v ->
                         Option.map (fun v -> (name, v)) (number v)
                     | _ -> None)
                 | _ -> None)
               rows)
      | _ -> Error (Printf.sprintf "no %S list" section))
  | Ok _ -> Error "not a JSON object"

(* Re-measures the microbenches (and the sweep experiments' sequential
   legs) and compares each subject against the committed
   BENCH_quorum.json / BENCH_analysis.json / BENCH_sweep.json, failing
   on any slowdown beyond the tolerance. The committed files are read
   before anything is measured and are never rewritten here, so the
   gate can run in CI ahead of the [micro] and [sweep] modes that
   regenerate them. *)
let check_regress ~tolerance =
  let rows_of ~section ~value_key file =
    match open_in_bin file with
    | exception Sys_error msg ->
        Printf.eprintf "error: %s\n" msg;
        exit 2
    | ic -> (
        let n = in_channel_length ic in
        let s = really_input_string ic n in
        close_in ic;
        match named_rows ~section ~value_key s with
        | Error e ->
            Printf.eprintf "error: %s: %s\n" file e;
            exit 2
        | Ok [] ->
            Printf.eprintf "error: no subjects found in %s\n" file;
            exit 2
        | Ok subjects -> subjects)
  in
  let subjects_of = rows_of ~section:"subjects" ~value_key:"ns_per_run" in
  let committed =
    subjects_of bench_json_file @ subjects_of analysis_json_file
  in
  let sweep_committed =
    rows_of ~section:"experiments" ~value_key:"sequential_s" sweep_json_file
  in
  let regressions = ref 0 in
  (* The sweep file tracks wall-clock seconds, not ns/run: re-run each
     committed experiment's sequential leg once and hold it to the same
     tolerance. The parallel columns are runner-shape-dependent (core
     count), so only the sequential baseline is gated here — the
     speedup floor lives in the CI bench job. Measured *before*
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
  out "  \"git_sha\": \"%s\",\n" (Obs.Json.escape (git_sha ()));
  out "  \"jobs\": %d,\n" jobs;
  (* [n = 2] stands for "any parallel-sized input": the backend choice
     only depends on whether jobs and n both exceed 1. *)
  out "  \"backend\": \"%s\",\n"
    (Obs.Json.escape (Simkit.Exec.backend_name (Simkit.Exec.backend ~jobs 2)));
  out "  \"unit\": \"seconds_wall_clock\",\n";
  out "  \"experiments\": [\n";
  List.iteri
    (fun i (name, samples, seq_s, par_s) ->
      out
        "    {\"name\": \"%s\", \"samples\": %d, \"sequential_s\": %.3f, \
         \"parallel_s\": %.3f, \"speedup\": %.2f, \"identical\": true}%s\n"
        (Obs.Json.escape name) samples seq_s par_s (seq_s /. par_s)
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
  let mode = match List.rev !positional with m :: _ -> m | [] -> "" in
  (* Precedence mirrors the CLI: an explicit --jobs wins, then
     STELLAR_CUP_JOBS, then sweep's default of 4. *)
  let default = Option.value ~default:4 (Simkit.Exec.jobs_from_env ()) in
  match mode with
  | "micro" -> run_microbenches ()
  | "check-regress" -> check_regress ~tolerance:!tolerance
  | "sweep" -> run_sweep ~jobs:(max 1 (Option.value ~default !jobs))
  | _ ->
      Printf.eprintf
        "usage: main.exe (micro | sweep [--jobs N] | check-regress \
         [--tolerance R])\n";
      exit 2
