(* A replica of the depth-first loop of [Driver.search], built only from
   the public calls it makes ([Concolic.run_once], [Solve_pc.solve],
   [Inputs.clear]) so that each call can be timed from outside the
   library. It covers the configuration the benchmark runs: null
   telemetry, no status file, no checkpoints, no deadlines, no fault
   injection. [Trace] checks it against [Driver.run] on the same seed
   (runs, verdict, coverage, solver counters) before trusting a number.

   Off the clock, each run is replayed on copies of IM and the PRNG:
   once with the symbolic shadow off, and once as a bare [Machine.load].
   The replays are not part of the search: their time is subtracted
   from the traced wall. *)

open Dart

type layers = {
  mutable run_once_ns : int64;
  mutable concrete_ns : int64; (* replay with symbolic = false *)
  mutable load_ns : int64; (* bare Machine.load *)
  mutable solve_ns : int64;
  mutable record_ns : int64; (* the loop's per-run coverage and flag bookkeeping *)
  mutable cached_ns : int64; (* solve calls that made no solver query *)
  mutable fast_path_ns : int64; (* ... that queried, none through simplex *)
  mutable simplex_ns : int64; (* ... that sent a query through simplex *)
  mutable calls : int;
  mutable cached_calls : int;
  mutable cached_lookups : int;
  mutable steps : int;
  mutable conditionals : int;
  mutable off_clock_ns : int64;
  mutable replay_mismatches : int;
}

type result = {
  report : Driver.report;
  wall_ns : int64; (* search wall clock, replays excluded *)
  layers : layers;
}

let ( +: ) = Int64.add
let ( -: ) = Int64.sub

let lookups stats = Solver.cache_hits stats + Solver.cache_misses stats

let same_outcome (a : Concolic.run_outcome) (b : Concolic.run_outcome) =
  match (a, b) with
  | Concolic.Run_fault (fa, sa), Concolic.Run_fault (fb, sb) ->
    fa = fb && sa.Machine.site_fn = sb.Machine.site_fn && sa.Machine.site_pc = sb.Machine.site_pc
  | Concolic.Run_halted, Concolic.Run_halted
  | Concolic.Run_prediction_failure, Concolic.Run_prediction_failure ->
    true
  | _ -> false

let search ~(options : Driver.options) (prog : Ram.Instr.program) : result =
  let o = options in
  let exec = o.Driver.Options.exec in
  let concrete_exec = { exec with Concolic.symbolic = false } in
  let max_runs = o.Driver.Options.budget.Driver.Options.max_runs in
  let stop_on_first_bug = o.Driver.Options.budget.Driver.Options.stop_on_first_bug in
  let use_cache = o.Driver.Options.accel.Driver.Options.use_cache in
  let strategy = o.Driver.Options.search.Driver.Options.strategy in
  let ctx =
    Driver.make_ctx ~incremental:o.Driver.Options.accel.Driver.Options.use_incremental
      ~use_breaker:o.Driver.Options.accel.Driver.Options.use_breaker
      ~seed:o.Driver.Options.search.Driver.Options.seed ~max_runs ()
  in
  let rng = ctx.Driver.sc_rng and im = ctx.Driver.sc_im and stats = ctx.Driver.sc_stats in
  let entry = Driver_gen.wrapper_name in
  let l =
    { run_once_ns = 0L; concrete_ns = 0L; load_ns = 0L; solve_ns = 0L; record_ns = 0L;
      cached_ns = 0L; fast_path_ns = 0L; simplex_ns = 0L; calls = 0; cached_calls = 0;
      cached_lookups = 0; steps = 0; conditionals = 0; off_clock_ns = 0L; replay_mismatches = 0 }
  in
  let coverage : (string * int * bool, unit) Hashtbl.t = Hashtbl.create 256 in
  let bug_sites : (string * int * Machine.fault, unit) Hashtbl.t = Hashtbl.create 16 in
  let runs = ref 0 and restarts = ref 0 and total_steps = ref 0 and paths = ref 0 in
  let resource_limited = ref 0 in
  let all_linear = ref true and all_locs_definite = ref true in
  let bugs = ref [] and first_bug = ref None in
  let budget_left () = !runs < max_runs in
  let record_run (data : Concolic.run_data) =
    incr runs;
    total_steps := !total_steps + data.Concolic.steps;
    if not data.Concolic.all_linear then all_linear := false;
    if not data.Concolic.all_locs_definite then all_locs_definite := false;
    List.iter
      (fun ((fn, _, _) as site) ->
        if not (Driver_gen.is_harness_site fn) then Hashtbl.replace coverage site ())
      data.Concolic.branch_sites
  in
  let record_bug fault site (data : Concolic.run_data) =
    let bug =
      { Driver.bug_fault = fault;
        bug_site = site;
        bug_run = !runs;
        bug_inputs =
          List.filter (fun (id, _) -> id < data.Concolic.inputs_read) (Inputs.to_alist im) }
    in
    let key = Driver.bug_key bug in
    if not (Hashtbl.mem bug_sites key) then begin
      Hashtbl.replace bug_sites key ();
      bugs := bug :: !bugs
    end;
    if !first_bug = None then first_bug := Some bug
  in
  let instrumented_run prev_stack =
    let t_copy = Telemetry.now () in
    let im_image = Inputs.to_full_alist im and rng_copy = Dart_util.Prng.copy rng in
    let t0 = Telemetry.now () in
    let data = Concolic.run_once ~opts:exec ~rng ~im ~prev_stack ~entry prog in
    let t1 = Telemetry.now () in
    l.run_once_ns <- l.run_once_ns +: (t1 -: t0);
    let replay_im = Inputs.create () in
    Inputs.restore replay_im im_image;
    let t2 = Telemetry.now () in
    let concrete =
      Concolic.run_once ~opts:concrete_exec ~rng:rng_copy ~im:replay_im ~prev_stack ~entry prog
    in
    let t3 = Telemetry.now () in
    ignore
      (Machine.load ~config:exec.Concolic.machine_config ~library:exec.Concolic.library
         ~compile:exec.Concolic.compile prog);
    let t4 = Telemetry.now () in
    l.concrete_ns <- l.concrete_ns +: (t3 -: t2);
    l.load_ns <- l.load_ns +: (t4 -: t3);
    l.off_clock_ns <- l.off_clock_ns +: (t0 -: t_copy) +: (t4 -: t1);
    if
      concrete.Concolic.steps <> data.Concolic.steps
      || not (same_outcome concrete.Concolic.outcome data.Concolic.outcome)
    then l.replay_mismatches <- l.replay_mismatches + 1;
    l.steps <- l.steps + data.Concolic.steps;
    l.conditionals <- l.conditionals + data.Concolic.conditionals;
    data
  in
  let timed_solve (data : Concolic.run_data) =
    let q0 = Solver.queries stats and s0 = Solver.simplex_queries stats in
    let k0 = lookups stats in
    let t0 = Telemetry.now () in
    let next =
      Solve_pc.solve
        ?cache:(if use_cache then Some ctx.Driver.sc_cache else None)
        ?incr:ctx.Driver.sc_incr ?breaker:ctx.Driver.sc_breaker
        ~slicing:o.Driver.Options.accel.Driver.Options.use_slicing
        ~hist:ctx.Driver.sc_metrics.Telemetry.solve_hist ~sites:data.Concolic.cond_sites
        ~strategy ~rng ~stats ~im ~stack:data.Concolic.stack
        ~path_constraint:data.Concolic.path_constraint ()
    in
    let dt = Telemetry.now () -: t0 in
    let k = lookups stats - k0 in
    l.solve_ns <- l.solve_ns +: dt;
    l.calls <- l.calls + 1;
    if Solver.queries stats = q0 then begin
      l.cached_ns <- l.cached_ns +: dt;
      l.cached_calls <- l.cached_calls + 1;
      l.cached_lookups <- l.cached_lookups + k
    end
    else if Solver.simplex_queries stats > s0 then l.simplex_ns <- l.simplex_ns +: dt
    else l.fast_path_ns <- l.fast_path_ns +: dt;
    next
  in
  let directed_search init_stack =
    let rec loop prev_stack =
      if not (budget_left ()) then `Budget
      else begin
        let data = instrumented_run prev_stack in
        let t0 = Telemetry.now () in
        record_run data;
        l.record_ns <- l.record_ns +: (Telemetry.now () -: t0);
        match data.Concolic.outcome with
        | Concolic.Run_fault ((Machine.Step_limit | Machine.Call_depth), _) ->
          incr resource_limited;
          `Restart
        | Concolic.Run_fault (fault, site) ->
          record_bug fault site data;
          if stop_on_first_bug then `Bug
          else begin
            incr paths;
            continue_solving data
          end
        | Concolic.Run_prediction_failure ->
          all_linear := false;
          `Restart
        | Concolic.Run_halted ->
          incr paths;
          continue_solving data
      end
    and continue_solving data =
      match timed_solve data with
      | Solve_pc.Next_run stack' -> loop stack'
      | Solve_pc.Exhausted { solver_incomplete } ->
        if solver_incomplete then all_linear := false;
        `Exhausted
    in
    loop init_stack
  in
  let may_claim_complete () =
    strategy = Strategy.Dfs && !all_linear && !all_locs_definite && !resource_limited = 0
  in
  let complete = ref false in
  let rec outer stack =
    match directed_search stack with
    | `Bug | `Budget -> ()
    | `Restart -> try_restart ()
    | `Exhausted -> if may_claim_complete () then complete := true else try_restart ()
  and try_restart () =
    if budget_left () then begin
      incr restarts;
      Option.iter Solver.Breaker.tick ctx.Driver.sc_breaker;
      Inputs.clear im;
      outer [||]
    end
  in
  let start = Telemetry.now () in
  Inputs.clear im;
  outer [||];
  let wall_ns = Telemetry.now () -: start -: l.off_clock_ns in
  let verdict =
    match !first_bug with
    | Some bug -> Driver.Bug_found bug
    | None -> if !complete then Driver.Complete else Driver.Budget_exhausted
  in
  let report =
    { Driver.verdict;
      runs = !runs;
      restarts = !restarts;
      total_steps = !total_steps;
      branches_covered = Hashtbl.length coverage;
      coverage_sites = Hashtbl.fold (fun site () acc -> site :: acc) coverage [];
      paths_explored = !paths;
      resource_limited = !resource_limited;
      all_linear = !all_linear;
      all_locs_definite = !all_locs_definite;
      solver_stats = stats;
      metrics = ctx.Driver.sc_metrics;
      bugs = List.rev !bugs }
  in
  { report; wall_ns; layers = l }
