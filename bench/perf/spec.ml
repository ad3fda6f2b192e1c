(* The benchmark's vocabulary: workload names and every metric with its
   unit, direction and (for end-to-end metrics) regression bound.
   BENCHMARK.json at the repository root states the same table in
   machine-readable form; the two must agree. *)

type better =
  | Lower
  | Higher

type metric = {
  name : string;
  unit_ : string;
  better : better;
  bound : float; (* share of the baseline median a metric may worsen by *)
}

let m name unit_ better bound = { name; unit_; better; bound }

let workloads = [ "ns-lowe-d5"; "ns-lowe-d5-j2"; "osip-parse-d2"; "solver-mix-d2"; "osip-lib-j2" ]

let default_seed = 7

(* End-to-end metrics, as a user of the tester sees them. Every one is
   nonzero on every workload. Times and memory move with the load of a
   shared host: on a 2-vCPU container their interquartile spread across
   runs reached 16% of the median, hence the wide bounds. Counts are
   exact for a given seed. *)
let end_to_end =
  [ m "setup_s" "s" Lower 0.25;
    m "wall_s" "s" Lower 0.25;
    m "execs_per_s" "1/s" Higher 0.25;
    m "cpu_s" "s" Lower 0.25;
    m "runs_to_verdict" "count" Lower 0.01;
    m "branches_covered" "count" Higher 0.01;
    m "peak_rss_mb" "MB" Lower 0.25 ]

(* Exact outcome metrics printed beside the end-to-end ones. They are 0
   on some workloads by design (no bug exists, no check fails), so they
   are compared exactly rather than by a share of their median. *)
let exact = [ m "bugs_found" "count" Higher 0.; m "fail_share" "ratio" Lower 0. ]

let l name unit_ better = m name unit_ better 0.

let per_layer =
  [ l "minic.parse_s" "s" Lower;
    l "driver_gen.generate_s" "s" Lower;
    l "minic.typecheck_s" "s" Lower;
    l "ram.lower_s" "s" Lower;
    l "machine.precompile_s" "s" Lower;
    l "machine.load_s" "s" Lower;
    l "machine.exec_s" "s" Lower;
    l "machine.steps" "count" Lower;
    l "machine.ns_per_step" "ns" Lower;
    l "concolic.run_once_s" "s" Lower;
    l "concolic.runs" "count" Lower;
    l "concolic.shadow_s" "s" Lower;
    l "concolic.conditionals" "count" Lower;
    l "solve_pc.solve_s" "s" Lower;
    l "solve_pc.calls" "count" Lower;
    l "solve_pc.cached_s" "s" Lower;
    l "solve_pc.cached_calls" "count" Higher;
    l "solve_pc.lookups" "count" Lower;
    l "solve_pc.ns_per_lookup" "ns" Lower;
    l "solve_pc.hit_ratio" "ratio" Higher;
    l "solve_pc.sliced_atoms" "count" Higher;
    l "solver.solving_s" "s" Lower;
    l "solver.fast_path_s" "s" Lower;
    l "solver.simplex_s" "s" Lower;
    l "solver.queries" "count" Lower;
    l "solver.sat" "count" Higher;
    l "solver.unsat" "count" Lower;
    l "solver.unknown" "count" Lower;
    l "solver.unknown_ratio" "ratio" Lower;
    l "solver.fast_path" "count" Higher;
    l "solver.simplex" "count" Lower;
    l "solver.ne_splits" "count" Lower;
    l "solver.incremental_hits" "count" Higher;
    l "solver.pops_saved" "count" Higher;
    l "driver.record_s" "s" Lower;
    l "driver.residual_s" "s" Lower;
    l "driver.residual_pct" "%" Lower;
    l "driver.restarts" "count" Lower;
    l "parallel.workers" "count" Higher;
    l "parallel.redundancy" "ratio" Lower;
    l "parallel.busy_ratio" "ratio" Higher;
    l "parallel.merge_s" "s" Lower;
    l "parallel.worker_runs_spread" "ratio" Lower;
    l "store.shared_hits" "count" Higher;
    l "store.shared_hit_ratio" "ratio" Higher;
    l "store.queries" "count" Lower;
    l "campaign.rounds" "count" Lower;
    l "campaign.slices" "count" Lower;
    l "campaign.slice_s" "s" Lower;
    l "campaign.round_s" "s" Lower;
    l "campaign.busy_ratio" "ratio" Higher;
    l "campaign.outside_rounds_s" "s" Lower;
    l "campaign.slice_s_j1" "s" Lower;
    l "campaign.slice_inflation" "ratio" Lower;
    l "campaign.lower_s" "s" Lower;
    l "campaign.discover_s" "s" Lower;
    l "trace.overhead_pct" "%" Lower ]

let find name =
  List.find_opt (fun x -> x.name = name) (end_to_end @ exact @ per_layer)
