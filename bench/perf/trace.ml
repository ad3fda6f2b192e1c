(* The traced run: per-layer numbers for one workload, measured apart
   from the end-to-end numbers. Jobs-1 workloads run the [Replica] of
   the search loop and time each public call it makes; the parallel
   workload reads the fields of [Parallel.report]; the campaign reads
   [cam_metrics] and its own Slice_end / Round_end events from a
   [Telemetry.ring]. A metric the traced run cannot see on a workload
   (a layer it bypasses, or a split its report does not expose) reads
   0. *)

open Dart

let sec = Stats.seconds
let fi = float_of_int
let ratio a b = if b = 0. then 0. else a /. b

let value_of values k = Option.value ~default:0. (List.assoc_opt k values)

let solver_values stats =
  let q = Solver.queries stats in
  [ ("solver.queries", fi q);
    ("solver.sat", fi (Solver.sat_count stats));
    ("solver.unsat", fi (Solver.unsat_count stats));
    ("solver.unknown", fi (Solver.unknown_count stats));
    ("solver.unknown_ratio", ratio (fi (Solver.unknown_count stats)) (fi q));
    ("solver.fast_path", fi (Solver.fast_path stats));
    ("solver.simplex", fi (Solver.simplex_queries stats));
    ("solver.ne_splits", fi (Solver.ne_splits stats));
    ("solver.incremental_hits", fi (Solver.incremental_hits stats));
    ("solver.pops_saved", fi (Solver.pops_saved stats));
    ("solve_pc.lookups", fi (Replica.lookups stats));
    ("solve_pc.hit_ratio", ratio (fi (Solver.cache_hits stats)) (fi (Replica.lookups stats)));
    ("solve_pc.sliced_atoms", fi (Solver.constraints_sliced_away stats)) ]

(* Search-loop layers shared by every workload: the time a domain spent
   in runs and in solving, averaged over [jobs] domains so that the
   sum with the residual is the search wall clock. *)
let loop_values ?(record_s = 0.) ~jobs ~wall_s ~run_once_s ~solve_s ~runs ~restarts () =
  let busy = (run_once_s +. solve_s) /. fi jobs in
  [ ("concolic.run_once_s", run_once_s /. fi jobs);
    ("solve_pc.solve_s", solve_s /. fi jobs);
    ("driver.record_s", record_s);
    ("concolic.runs", fi runs);
    ("driver.residual_s", wall_s -. busy -. record_s);
    ("driver.restarts", fi restarts) ]

let same_verdict (a : Driver.verdict) (b : Driver.verdict) =
  match (a, b) with
  | Driver.Bug_found x, Driver.Bug_found y -> Driver.bug_key x = Driver.bug_key y
  | _ -> a = b

(* One traced repetition of a jobs-1 workload, checked against the
   untraced [Driver.run] report [u] of the same seed. *)
let traced_single c ~workload ~options prog (u : Driver.report) =
  Gc.compact ();
  let t = Replica.search ~options prog in
  let r = t.Replica.report and l = t.Replica.layers in
  let fidelity what ok = Work.check c ~workload ("replica matches Driver.search: " ^ what) ok in
  fidelity "runs" (r.Driver.runs = u.Driver.runs);
  fidelity "verdict" (same_verdict r.Driver.verdict u.Driver.verdict);
  fidelity "branches_covered" (r.Driver.branches_covered = u.Driver.branches_covered);
  fidelity "solver counters"
    (Solver.to_assoc r.Driver.solver_stats = Solver.to_assoc u.Driver.solver_stats);
  Work.check c ~workload "concrete replays match the instrumented runs"
    (l.Replica.replay_mismatches = 0);
  let wall_s = sec t.Replica.wall_ns in
  let exec_ns = Int64.sub l.Replica.concrete_ns l.Replica.load_ns in
  let values =
    [ ("machine.load_s", sec l.Replica.load_ns);
      ("machine.exec_s", sec exec_ns);
      ("machine.steps", fi l.Replica.steps);
      ("machine.ns_per_step", ratio (Int64.to_float exec_ns) (fi l.Replica.steps));
      ("concolic.shadow_s", sec (Int64.sub l.Replica.run_once_ns l.Replica.concrete_ns));
      ("concolic.conditionals", fi l.Replica.conditionals);
      ("solve_pc.calls", fi l.Replica.calls);
      ("solve_pc.cached_s", sec l.Replica.cached_ns);
      ("solve_pc.cached_calls", fi l.Replica.cached_calls);
      ( "solve_pc.ns_per_lookup",
        ratio (Int64.to_float l.Replica.cached_ns) (fi l.Replica.cached_lookups) );
      ("solver.solving_s", sec (Int64.add l.Replica.fast_path_ns l.Replica.simplex_ns));
      ("solver.fast_path_s", sec l.Replica.fast_path_ns);
      ("solver.simplex_s", sec l.Replica.simplex_ns) ]
    @ solver_values r.Driver.solver_stats
    @ loop_values ~record_s:(sec l.Replica.record_ns) ~jobs:1 ~wall_s
        ~run_once_s:(sec l.Replica.run_once_ns) ~solve_s:(sec l.Replica.solve_ns)
        ~runs:r.Driver.runs ~restarts:r.Driver.restarts ()
  in
  (values, wall_s)

let traced_parallel ~jobs ~ref_runs (p : Parallel.report) ~wall_s =
  let m = p.Parallel.merged in
  let ws = List.map (fun w -> w.Parallel.w_report) p.Parallel.workers in
  let sum f = List.fold_left (fun acc r -> acc +. f r) 0. ws in
  let run_once_s = sum (fun r -> sec r.Driver.metrics.Telemetry.execute_ns) in
  let solve_s = sum (fun r -> sec r.Driver.metrics.Telemetry.solve_ns) in
  let wruns = List.map (fun r -> fi r.Driver.runs) ws in
  let spread =
    ratio
      (List.fold_left Float.max neg_infinity wruns -. List.fold_left Float.min infinity wruns)
      (fi m.Driver.runs /. fi (List.length ws))
  in
  let st = m.Driver.solver_stats in
  [ ("machine.steps", fi m.Driver.total_steps);
    ("parallel.workers", fi (List.length ws));
    ("parallel.redundancy", ratio (fi m.Driver.runs) (fi ref_runs));
    ("parallel.busy_ratio", ratio (run_once_s +. solve_s) (fi jobs *. wall_s));
    ("parallel.merge_s", sec m.Driver.metrics.Telemetry.merge_ns);
    ("parallel.worker_runs_spread", spread);
    ("store.shared_hits", fi (Solver.shared_hits st));
    ("store.shared_hit_ratio", ratio (fi (Solver.shared_hits st)) (fi (Solver.cache_hits st)));
    ("store.queries", fi (Solver.queries st)) ]
  @ solver_values st
  @ loop_values ~jobs ~wall_s ~run_once_s ~solve_s ~runs:m.Driver.runs
      ~restarts:m.Driver.restarts ()

type campaign_trace = {
  report : Campaign.report;
  wall_s : float;
  dropped : int; (* campaign events the ring lost *)
  slices : int;
  slice_s : float; (* summed Slice_end durations *)
  rounds : int;
  round_s : float; (* summed Round_end durations *)
}

(* A campaign with tracing on: slices trace into rings of one event (the
   harness only needs the campaign-scope events the main sink keeps). *)
let traced_campaign ~jobs (l : Work.library) =
  let ring = Telemetry.ring ~capacity:(1 lsl 18) in
  let telemetry = { Telemetry.default_config with Telemetry.sink = ring; worker_buffer = 1 } in
  let options = { l.Work.c_options with Driver.Options.telemetry } in
  let report, wall_s, _ = Work.measure (fun () -> Work.run_campaign ~jobs ~options l.Work.text) in
  List.fold_left
    (fun t -> function
      | Telemetry.Slice_end { dur_ns; _ } ->
        { t with slices = t.slices + 1; slice_s = t.slice_s +. sec dur_ns }
      | Telemetry.Round_end { dur_ns; _ } ->
        { t with rounds = t.rounds + 1; round_s = t.round_s +. sec dur_ns }
      | _ -> t)
    { report; wall_s; dropped = Telemetry.dropped ring; slices = 0; slice_s = 0.; rounds = 0;
      round_s = 0. }
    (Telemetry.events ring)

let campaign_values ~jobs ~slice_s_j1 t =
  let cm = t.report.Campaign.cam_metrics in
  [ ("solve_pc.lookups", fi (Telemetry.Hist.count cm.Telemetry.solve_hist));
    ("campaign.rounds", fi t.rounds);
    ("campaign.slices", fi t.slices);
    ("campaign.slice_s", t.slice_s);
    ("campaign.round_s", t.round_s);
    ("campaign.busy_ratio", ratio t.slice_s (fi jobs *. t.round_s));
    ("campaign.outside_rounds_s", t.wall_s -. t.round_s);
    ("campaign.slice_s_j1", slice_s_j1);
    ("campaign.slice_inflation", ratio t.slice_s slice_s_j1);
    ("campaign.lower_s", sec cm.Telemetry.lower_ns) ]
  @ loop_values ~jobs ~wall_s:t.wall_s ~run_once_s:(sec cm.Telemetry.execute_ns)
      ~solve_s:(sec cm.Telemetry.solve_ns) ~runs:(Work.campaign_runs t.report) ~restarts:0 ()

(* Runs untraced and traced repetitions in turn until [seconds] have
   passed and each side has [min_reps]; returns every per-layer metric
   of the fastest traced repetition (so its layers sum to its own wall),
   and the tracing overhead as fastest traced over fastest untraced. *)
let run c ~seconds ~min_reps (w : Work.t) (st : Work.setup_timing) =
  let workload = w.Work.name in
  let start = Telemetry.now () in
  let elapsed () = sec (Int64.sub (Telemetry.now ()) start) in
  (* [traced_rep u] is one traced repetition, checked against the
     untraced one [u]; the parallel and campaign cases first make one
     jobs-1 reference measurement. *)
  let traced_rep =
    match w.Work.kind with
    | Work.Single s ->
      let prog = Option.get st.Work.prog in
      if s.Work.jobs = 1 then begin
        (* Warm-up: a process's first search runs on cold caches and a
           small heap, which would bill the untraced side of the first
           pair. The other cases warm up with their reference run. *)
        ignore (Work.run_once w st);
        fun (u : Work.rep) ->
          match u.Work.outcome with
          | Work.Ran ur -> traced_single c ~workload ~options:s.Work.options prog ur
          | _ -> assert false
      end
      else begin
        let ref_runs = (Driver.run ~options:s.Work.options prog).Driver.runs in
        fun (u : Work.rep) ->
          let t = Work.run_once w st in
          Work.check_rep c w st t;
          Work.check c ~workload "traced run agrees with untraced run"
            (Work.counts t.Work.outcome = Work.counts u.Work.outcome);
          match t.Work.outcome with
          | Work.Ran_parallel p ->
            (traced_parallel ~jobs:s.Work.jobs ~ref_runs p ~wall_s:t.Work.wall_s, t.Work.wall_s)
          | _ -> assert false
      end
    | Work.Library l ->
      let slice_s_j1 = (traced_campaign ~jobs:1 l).slice_s in
      fun (u : Work.rep) ->
        let t = traced_campaign ~jobs:l.Work.c_jobs l in
        let traced = Work.Ran_campaign t.report in
        Work.check_rep c w st { u with Work.outcome = traced };
        Work.check c ~workload "campaign trace kept every campaign event" (t.dropped = 0);
        Work.check c ~workload "traced campaign agrees with untraced campaign"
          (Work.counts traced = Work.counts u.Work.outcome);
        (campaign_values ~jobs:l.Work.c_jobs ~slice_s_j1 t, t.wall_s)
  in
  let untraced = ref [] and traced = ref [] in
  while List.length !traced < min_reps || elapsed () < seconds do
    if !traced <> [] then Work.setup_batch st;
    let u = Work.run_once w st in
    Work.check_rep c w st u;
    untraced := u.Work.wall_s :: !untraced;
    let values, wall_s = traced_rep u in
    (* Layer sum: the layers plus the residual make up the traced wall,
       and the layers' timers did not run longer than the wall around
       them. *)
    let get = value_of values in
    let setup_s = Work.setup_s st in
    let traced_wall = setup_s +. wall_s in
    let residual = get "driver.residual_s" in
    let sum =
      setup_s +. get "concolic.run_once_s" +. get "solve_pc.solve_s" +. get "driver.record_s"
      +. residual
    in
    Work.check c ~workload "layer sum equals the traced wall"
      (Float.abs (sum -. traced_wall) <= 1e-9 *. traced_wall && residual >= 0.);
    let pct = 100. *. ratio residual traced_wall in
    traced := (("driver.residual_pct", pct) :: values, wall_s) :: !traced
  done;
  let fastest, fastest_wall =
    List.fold_left
      (fun (bv, bw) (v, w) -> if w < bw then (v, w) else (bv, bw))
      ([], infinity) !traced
  in
  let overhead =
    100. *. (ratio fastest_wall (List.fold_left Float.min infinity !untraced) -. 1.)
  in
  (* With the replica every layer of the loop is timed, so a residual
     over 5% means time went somewhere no layer accounts for. *)
  let residual_pct = value_of fastest "driver.residual_pct" in
  (match w.Work.kind with
   | Work.Single { Work.jobs = 1; _ } when residual_pct > 5. ->
     Printf.printf
       "%-14s layer sum: residual %.1f%% of the traced wall is over 5%%: a layer is missing\n"
       workload residual_pct
   | _ -> ());
  List.map
    (fun (m : Spec.metric) ->
      let k = m.Spec.name in
      let v =
        if k = "trace.overhead_pct" then overhead
        else
          match Array.find_index (String.equal k) Work.stage_names with
          | Some i -> Work.stage_s st i
          | None -> value_of fastest k
      in
      (k, v))
    Spec.per_layer
