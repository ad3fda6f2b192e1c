module Options = struct
  type budget = {
    max_runs : int;
    stop_on_first_bug : bool;
    time_budget_ns : int64 option;
    solver_deadline_ns : int64 option;
  }

  type search = {
    seed : int;
    depth : int;
    strategy : Strategy.t;
  }

  type accel = {
    use_slicing : bool;
    use_cache : bool;
    use_incremental : bool;
    use_breaker : bool;
  }

  type priority =
    | Frontier_first
    | Declaration_order

  type campaign = {
    per_function_runs : int;
    priority : priority;
    retire_after : int;
    retry_limit : int; (* consecutive slice faults before quarantine *)
  }

  type t = {
    budget : budget;
    search : search;
    accel : accel;
    campaign : campaign;
    exec : Concolic.exec_options;
    telemetry : Telemetry.config;
    fault : Dart_util.Faultsim.t; (* fault injection; Faultsim.off in production *)
  }

  let default =
    { budget =
        { max_runs = 10_000;
          stop_on_first_bug = true;
          time_budget_ns = None;
          solver_deadline_ns = None };
      search = { seed = 42; depth = 1; strategy = Strategy.Dfs };
      accel =
        { use_slicing = true;
          use_cache = true;
          use_incremental = true;
          use_breaker = true };
      campaign =
        { per_function_runs = 200;
          priority = Frontier_first;
          retire_after = 2;
          retry_limit = 3 };
      exec = Concolic.default_exec_options;
      telemetry = Telemetry.default_config;
      fault = Dart_util.Faultsim.off }

  let make ?(seed = default.search.seed) ?(depth = default.search.depth)
      ?(max_runs = default.budget.max_runs) ?(strategy = default.search.strategy)
      ?(stop_on_first_bug = default.budget.stop_on_first_bug) ?time_budget_ns
      ?solver_deadline_ns ?(use_slicing = default.accel.use_slicing)
      ?(use_cache = default.accel.use_cache)
      ?(use_incremental = default.accel.use_incremental)
      ?(use_breaker = default.accel.use_breaker)
      ?(per_function_runs = default.campaign.per_function_runs)
      ?(priority = default.campaign.priority)
      ?(retire_after = default.campaign.retire_after)
      ?(retry_limit = default.campaign.retry_limit) ?(exec = default.exec)
      ?(telemetry = default.telemetry) ?(faultsim = Dart_util.Faultsim.off) () =
    { budget = { max_runs; stop_on_first_bug; time_budget_ns; solver_deadline_ns };
      search = { seed; depth; strategy };
      accel = { use_slicing; use_cache; use_incremental; use_breaker };
      campaign = { per_function_runs; priority; retire_after; retry_limit };
      exec;
      telemetry;
      fault = faultsim }

  let priority_to_string = function
    | Frontier_first -> "frontier"
    | Declaration_order -> "order"

  let priority_of_string = function
    | "frontier" -> Some Frontier_first
    | "order" -> Some Declaration_order
    | _ -> None
end

type options = Options.t

type bug = {
  bug_fault : Machine.fault;
  bug_site : Machine.site;
  bug_run : int;
  bug_inputs : (int * int) list;
}

let bug_key b = (b.bug_site.Machine.site_fn, b.bug_site.Machine.site_pc, b.bug_fault)

type verdict =
  | Bug_found of bug
  | Complete
  | Budget_exhausted
  | Time_exhausted
  | Interrupted

type report = {
  verdict : verdict;
  runs : int;
  restarts : int;
  total_steps : int;
  branches_covered : int;
  coverage_sites : (string * int * bool) list;
  paths_explored : int;
  resource_limited : int;
  all_linear : bool;
  all_locs_definite : bool;
  solver_stats : Solver.stats;
  metrics : Telemetry.metrics;
  bugs : bug list;
}

type snapshot = {
  sn_pending_restart : bool;
  sn_stack : Concolic.branch_record array;
  sn_im : (int * int * Inputs.kind) list;
  sn_rng : int64;
  sn_runs : int;
  sn_restarts : int;
  sn_total_steps : int;
  sn_paths : int;
  sn_resource_limited : int;
  sn_all_linear : bool;
  sn_all_locs_definite : bool;
  sn_coverage : (string * int * bool) list;
  sn_stats : (string * int) list;
  sn_bugs : bug list;
}

(* A search's claim on the run budget: either a fixed private count
   (the shape a solo search uses) or a reservation against a pool
   shared by every worker of a parallel search. Pooled workers claim
   runs one at a time with a CAS decrement, so a worker that drains
   its subtree early leaves the rest of the budget to its peers. *)
type run_budget =
  | Fixed_budget of int
  | Pooled_budget of pooled_budget

and pooled_budget = { pb_pool : int Atomic.t; mutable pb_claimed : int }

let pooled_budget pool = Pooled_budget { pb_pool = pool; pb_claimed = 0 }

let rec claim_run pb =
  let avail = Atomic.get pb.pb_pool in
  if avail <= 0 then false
  else if Atomic.compare_and_set pb.pb_pool avail (avail - 1) then begin
    pb.pb_claimed <- pb.pb_claimed + 1;
    true
  end
  else claim_run pb

type job =
  | Root
  | Branch of {
      jb_stack : Concolic.branch_record array;
      jb_pc : Symbolic.Constr.t option array;
      jb_sites : (string * int) array;
      jb_im : (int * int * Inputs.kind) list;
    }

type seat = {
  seat_pool : job Workpool.t;
  seat_root : bool;
  mutable seat_taken : int;
  mutable seat_donated : int;
}

let seat ~root pool = { seat_pool = pool; seat_root = root; seat_taken = 0; seat_donated = 0 }

type search_ctx = {
  sc_rng : Dart_util.Prng.t;
  sc_im : Inputs.t;
  sc_stats : Solver.stats;
  sc_cache : Solver.Store.t * int;
  sc_incr : Solver.Incr.t option;
  sc_metrics : Telemetry.metrics;
  sc_budget : run_budget;
  sc_deadline : int64 option;
  sc_should_stop : unit -> bool;
  sc_breaker : Solver.Breaker.t option;
  sc_seat : seat option;
}

let make_ctx ?seat ?(should_stop = fun () -> false)
    ?(metrics = Telemetry.create_metrics ()) ?deadline ?pool ?store
    ?(incremental = true) ?(use_breaker = true) ?breaker ~seed ~max_runs () =
  { sc_rng = Dart_util.Prng.create seed;
    sc_im = Inputs.create ();
    sc_stats = Solver.create_stats ();
    sc_cache =
      (match store with Some s -> s | None -> (Solver.Store.create ~workers:1, 0));
    sc_incr = (if incremental then Some (Solver.Incr.create ()) else None);
    sc_metrics = metrics;
    sc_budget =
      (match pool with Some p -> pooled_budget p | None -> Fixed_budget max_runs);
    sc_deadline = deadline;
    sc_should_stop = should_stop;
    sc_breaker =
      (* An explicit [breaker] survives across calls (campaign slices of
         one target share it); otherwise each context gets a fresh one. *)
      (match breaker with
       | Some _ as b -> b
       | None -> if use_breaker then Some (Solver.Breaker.create ()) else None);
    sc_seat = seat }

let deadline_of_options (options : Options.t) =
  Option.map
    (fun ns -> Int64.add (Telemetry.now ()) ns)
    options.Options.budget.Options.time_budget_ns

let prepare ?metrics ?(library_sigs = []) ~toplevel ~depth (ast : Minic.Ast.program) =
  let lower () =
    let ast = Driver_gen.generate ast ~toplevel ~depth in
    let tp = Minic.Typecheck.check ~library:library_sigs ast in
    Ram.Lower.lower_program tp
  in
  match metrics with
  | None -> lower ()
  | Some m -> Telemetry.timed m Telemetry.Lower lower

let search ?resume ?on_checkpoint ?(checkpoint_every = 256) ~ctx ~(options : options)
    (prog : Ram.Instr.program) : report =
  let rng = ctx.sc_rng in
  let stats = ctx.sc_stats in
  let im = ctx.sc_im in
  let metrics = ctx.sc_metrics in
  let sink = options.Options.telemetry.Telemetry.sink in
  let fs = options.Options.fault in
  let tracing = Telemetry.enabled sink in
  let status_every = max 1 options.Options.telemetry.Telemetry.status_every in
  let search_start = Telemetry.now () in
  let coverage : (string * int * bool, unit) Hashtbl.t = Hashtbl.create 256 in
  let bug_sites : (string * int * Machine.fault, unit) Hashtbl.t = Hashtbl.create 16 in
  let runs = ref 0 in
  let restarts = ref 0 in
  let total_steps = ref 0 in
  let paths = ref 0 in
  let resource_limited = ref 0 in
  let all_linear = ref true in
  let all_locs_definite = ref true in
  let bugs = ref [] in
  let first_bug = ref None in
  (* Why the search drained, decided by the first [budget_left] poll
     that said stop; the verdict and the final checkpoint depend on
     it. *)
  let stop = ref `Running in
  let final_snapshot = ref None in
  let entry = Driver_gen.wrapper_name in
  (* Everything the run boundary determines, as a serializable value:
     writing this at run boundary b and replaying it later continues
     the exact sequence of runs an uninterrupted search would have
     performed (same RNG stream, same IM, same pending stack). *)
  let take_snapshot ~pending_restart ~stack =
    { sn_pending_restart = pending_restart;
      sn_stack = stack;
      sn_im = Inputs.to_full_alist im;
      sn_rng = Dart_util.Prng.state rng;
      sn_runs = !runs;
      sn_restarts = !restarts;
      sn_total_steps = !total_steps;
      sn_paths = !paths;
      sn_resource_limited = !resource_limited;
      sn_all_linear = !all_linear;
      sn_all_locs_definite = !all_locs_definite;
      sn_coverage =
        List.sort compare (Hashtbl.fold (fun site () acc -> site :: acc) coverage []);
      sn_stats = Solver.to_assoc stats;
      sn_bugs = List.rev !bugs }
  in
  (match resume with
   | None -> ()
   | Some s ->
     runs := s.sn_runs;
     restarts := s.sn_restarts;
     total_steps := s.sn_total_steps;
     paths := s.sn_paths;
     resource_limited := s.sn_resource_limited;
     all_linear := s.sn_all_linear;
     all_locs_definite := s.sn_all_locs_definite;
     Dart_util.Prng.set_state rng s.sn_rng;
     Inputs.restore im s.sn_im;
     List.iter (fun site -> Hashtbl.replace coverage site ()) s.sn_coverage;
     (* ctx stats start zeroed, so adding the checkpointed counters is
        a restore. *)
     Solver.add_stats ~into:stats (Solver.of_assoc s.sn_stats);
     List.iter (fun b -> Hashtbl.replace bug_sites (bug_key b) ()) s.sn_bugs;
     bugs := List.rev s.sn_bugs;
     first_bug := (match s.sn_bugs with b :: _ -> Some b | [] -> None));
  let status =
    Option.map
      (Status.publisher ~fault:fs
         ~warn:(fun msg -> Printf.eprintf "dart: %s\n%!" msg)
         ~mode:Status.Run ~budget_ns:options.Options.budget.Options.time_budget_ns
         ~max_runs:options.Options.budget.Options.max_runs
         ~restored_runs:(match resume with Some s -> s.sn_runs | None -> 0))
      options.Options.telemetry.Telemetry.status_path
  in
  let write_status ~final p =
    Status.publish p ~runs:!runs ~bugs:(List.length !bugs) ~covered:(Hashtbl.length coverage)
      ~frontier:
        (Coverage.frontier_count (Hashtbl.fold (fun site () acc -> site :: acc) coverage []))
      ~done_:(if final then 1 else 0) ~active:(if final then 0 else 1) ~remaining:0 ~round:0
      metrics.Telemetry.solve_hist
  in
  let record_run (data : Concolic.run_data) =
    incr runs;
    total_steps := !total_steps + data.Concolic.steps;
    if not data.Concolic.all_linear then all_linear := false;
    if not data.Concolic.all_locs_definite then all_locs_definite := false;
    (* Harness-internal branch sites ([__dart_*] and synthetic [__coin]
       coins) are excluded, keeping [branches_covered] consistent with
       [Coverage.compute] and [Telemetry.summarize] for the same run. *)
    List.iter
      (fun ((fn, _, _) as site) ->
        if not (Driver_gen.is_harness_site fn) then Hashtbl.replace coverage site ())
      data.Concolic.branch_sites;
    (* One coverage-over-time sample per run: cumulative distinct user
       branch directions (the same set [branches_covered] reports) and
       wall clock since the search started. *)
    if tracing then
      Telemetry.emit sink
        (Telemetry.Cover_point
           { run = !runs;
             covered = Hashtbl.length coverage;
             elapsed_ns = Int64.sub (Telemetry.now ()) search_start });
    match status with
    | Some p when !runs mod status_every = 0 -> write_status ~final:false p
    | _ -> ()
  in
  let record_bug fault site (data : Concolic.run_data) =
    let bug =
      { bug_fault = fault;
        bug_site = site;
        bug_run = !runs;
        (* Only the inputs the faulting run actually read: IM may hold
           values set by earlier solver iterations along paths this run
           never took, and including them would make [bug_inputs] a
           non-minimal (and misleading) witness. *)
        bug_inputs =
          List.filter
            (fun (id, _) -> id < data.Concolic.inputs_read)
            (Inputs.to_alist im) }
    in
    if tracing then
      Telemetry.emit sink
        (Telemetry.Bug_found
           { fn = site.Machine.site_fn;
             pc = site.Machine.site_pc;
             fault = Machine.fault_to_string fault;
             run = !runs });
    let key = bug_key bug in
    if not (Hashtbl.mem bug_sites key) then begin
      Hashtbl.replace bug_sites key ();
      bugs := bug :: !bugs
    end;
    if !first_bug = None then first_bug := Some bug
  in
  (* One instrumented run, bracketed with Run_start/Run_end and timed
     into the Execute phase. *)
  let instrumented_run prev_stack =
    if tracing then Telemetry.emit sink (Telemetry.Run_start { run = !runs + 1 });
    let t0 = Telemetry.now () in
    let data = Concolic.run_once ~opts:options.Options.exec ~rng ~im ~prev_stack ~entry prog in
    let dur = Int64.sub (Telemetry.now ()) t0 in
    Telemetry.add_phase metrics Telemetry.Execute dur;
    Telemetry.Hist.add metrics.Telemetry.run_hist dur;
    if tracing then begin
      Array.iteri
        (fun i (fn, pc) ->
          Telemetry.emit sink
            (Telemetry.Branch_taken
               { fn; pc; dir = data.Concolic.stack.(i).Concolic.br_branch }))
        data.Concolic.cond_sites;
      Telemetry.emit sink
        (Telemetry.Run_end
           { run = !runs + 1;
             outcome = Concolic.outcome_to_string data.Concolic.outcome;
             steps = data.Concolic.steps;
             dur_ns = dur })
    end;
    data
  in
  (* Run boundary: stop on process-wide interrupt (SIGINT/SIGTERM),
     global time budget, run budget (private or pooled), or external
     cancellation (another worker found a bug) — in all cases the
     search drains cleanly and the first cause that fired names the
     verdict. *)
  let budget_left () =
    match !stop with
    | `Interrupt | `Time | `Budget | `Cancel -> false
    | `Running ->
      if Cancel.requested () then begin
        stop := `Interrupt;
        false
      end
      else if
        match ctx.sc_deadline with
        | None -> false
        | Some d -> Int64.compare (Telemetry.now ()) d >= 0
      then begin
        stop := `Time;
        false
      end
      else if
        match ctx.sc_budget with
        | Fixed_budget m -> !runs >= m
        | Pooled_budget pb ->
          (* Claim until we hold a reservation for the next run or the
             shared pool runs dry. *)
          let rec need () =
            if !runs < pb.pb_claimed then false
            else if claim_run pb then need ()
            else true
          in
          need ()
      then begin
        stop := `Budget;
        false
      end
      else if ctx.sc_should_stop () then begin
        stop := `Cancel;
        false
      end
      else true
  in
  let seat = ctx.sc_seat in
  (* A pool member donates the shallowest pending branch of this run to
     an idle peer, keeping at least one for itself. The job carries the
     stack up to the branch with everything shallower marked done, so
     the receiver's depth-first walk stays inside the branch's subtree;
     marking it done here keeps this worker out of it. *)
  let donate s ~sites ~stack ~path_constraint =
    let n = Array.length stack in
    let rec pending i =
      if i >= n then n
      else if (not stack.(i).Concolic.br_done) && path_constraint.(i) <> None then i
      else pending (i + 1)
    in
    let j = pending 0 in
    if j < n && pending (j + 1) < n then begin
      let job =
        Branch
          { jb_stack =
              Array.init (j + 1) (fun i ->
                  if i < j then { (stack.(i)) with Concolic.br_done = true } else stack.(i));
            jb_pc = Array.sub path_constraint 0 (j + 1);
            jb_sites = Array.sub sites 0 (j + 1);
            jb_im = Inputs.to_full_alist im }
      in
      stack.(j) <- { (stack.(j)) with Concolic.br_done = true };
      s.seat_donated <- s.seat_donated + 1;
      Workpool.donate s.seat_pool job
    end
  in
  (* Inner loop: directed search from a fresh random seed point, or
     from a donated job's solve. Returns [`Bug], [`Exhausted] (directed
     search over) or [`Restart]. [prev_stack] is threaded so every
     boundary can snapshot the state the next run would consume. *)
  let directed_search start =
    let rec loop prev_stack =
      if not (budget_left ()) then begin
        final_snapshot := Some (take_snapshot ~pending_restart:false ~stack:prev_stack);
        `Budget
      end
      else begin
        (match on_checkpoint with
         | Some save when !runs > 0 && !runs mod checkpoint_every = 0 ->
           save (take_snapshot ~pending_restart:false ~stack:prev_stack);
           if tracing then Telemetry.emit sink (Telemetry.Checkpoint_saved { run = !runs })
         | _ -> ());
        let data = instrumented_run prev_stack in
        let data =
          (* Injected machine fault: rewrite the finished run's outcome,
             exercising the classification below without a genuinely
             non-terminating workload. *)
          if
            Dart_util.Faultsim.is_on fs
            && Dart_util.Faultsim.fire fs Dart_util.Faultsim.Machine_step_limit
          then
            { data with
              Concolic.outcome =
                Concolic.Run_fault
                  ( Machine.Step_limit,
                    { Machine.site_fn = "__faultsim";
                      site_pc = 0;
                      site_loc = { Minic.Loc.file = "<faultsim>"; line = 0; col = 0 } } ) }
          else data
        in
        record_run data;
        match data.Concolic.outcome with
        | Concolic.Run_fault ((Machine.Step_limit | Machine.Call_depth), _) ->
          (* A run that exhausted its step budget or call stack is a
             resource-limited run, the paper's §3 treatment of
             non-termination: count it and restart with fresh random
             inputs — it is not a program bug, and its truncated path
             must not poison the directed state. *)
          incr resource_limited;
          `Restart
        | Concolic.Run_fault (fault, site) ->
          record_bug fault site data;
          if options.Options.budget.Options.stop_on_first_bug then `Bug
          else begin
            (* Keep searching: treat the faulting path as fully
               explored and force the next branch. *)
            incr paths;
            continue_solving data
          end
        | Concolic.Run_prediction_failure ->
          (* forcing_ok = 0: caused by an earlier incompleteness; the
             outer loop restarts with fresh random inputs. *)
          all_linear := false;
          `Restart
        | Concolic.Run_halted ->
          incr paths;
          continue_solving data
      end
    and continue_solving data =
      solve_from ~sites:data.Concolic.cond_sites ~stack:data.Concolic.stack
        ~path_constraint:data.Concolic.path_constraint
    and solve_from ~sites ~stack ~path_constraint =
      (match seat with
       | Some s when Workpool.hungry s.seat_pool -> donate s ~sites ~stack ~path_constraint
       | _ -> ());
      let t0 = Telemetry.now () in
      let next =
        Solve_pc.solve
          ?cache:(if options.Options.accel.Options.use_cache then Some ctx.sc_cache else None)
          ?incr:ctx.sc_incr ?breaker:ctx.sc_breaker
          ?deadline_ns:options.Options.budget.Options.solver_deadline_ns ~faultsim:fs
          ~slicing:options.Options.accel.Options.use_slicing ~telemetry:sink
          ~hist:metrics.Telemetry.solve_hist ~sites
          ~strategy:options.Options.search.Options.strategy ~rng ~stats ~im ~stack
          ~path_constraint ()
      in
      Telemetry.add_phase metrics Telemetry.Solve (Int64.sub (Telemetry.now ()) t0);
      match next with
      | Solve_pc.Next_run stack' -> loop stack'
      | Solve_pc.Exhausted { solver_incomplete } ->
        if solver_incomplete then all_linear := false;
        `Exhausted
    in
    match start with
    | `Run stack -> loop stack
    | `Solve (jb_stack, jb_pc, jb_sites) ->
      (* The job's branch is its only candidate: the unchanged Figure 5
         solve either opens its subtree or finds it infeasible. *)
      solve_from ~sites:jb_sites ~stack:(Array.copy jb_stack) ~path_constraint:jb_pc
  in
  (* Theorem 1(b)'s completeness argument relies on the depth-first
     discipline: flipping a shallow branch discards the pending work
     beneath it, so BFS/random exhaustion does not imply full path
     coverage and only triggers a restart. *)
  let may_claim_complete () =
    options.Options.search.Options.strategy = Strategy.Dfs && !all_linear
    && !all_locs_definite
    (* A resource-limited run was truncated, not explored: its suffix
       paths are unvisited, so completeness cannot be claimed. *)
    && !resource_limited = 0
  in
  (* Outer loop (Figure 2): repeat until the directed search terminates
     with completeness flags intact, or the budget runs out. *)
  let complete = ref false in
  let restart () =
    incr restarts;
    (* In a single run the breaker's cooldown unit is the restart (a
       campaign ticks once per slice instead). *)
    Option.iter Solver.Breaker.tick ctx.sc_breaker;
    if tracing then Telemetry.emit sink (Telemetry.Restart { restarts = !restarts })
  in
  (* Every job this worker took (worker 0 starts holding the root): if
     the search raises, they all go back to the pool, so a crash costs
     work, not results. *)
  let taken = ref (match seat with Some s when s.seat_root -> [ Root ] | _ -> []) in
  let rec outer start =
    match directed_search start with
    | `Bug -> ()
    | `Budget -> ()
    | `Restart -> try_restart ()
    | `Exhausted ->
      if may_claim_complete () then
        match seat with
        | None -> complete := true
        | Some s -> idle s
      else try_restart ()
  (* A pool member whose part of the tree is exhausted: only the
     terminated pool proves the whole tree was walked. *)
  and idle s =
    match Workpool.await s.seat_pool ~poll:budget_left with
    | Workpool.Job job ->
      s.seat_taken <- s.seat_taken + 1;
      taken := job :: !taken;
      (match job with
       | Root ->
         Inputs.clear im;
         outer (`Run [||])
       | Branch b ->
         Inputs.restore im b.jb_im;
         outer (`Solve (b.jb_stack, b.jb_pc, b.jb_sites)))
    | Workpool.Terminated -> complete := true
    | Workpool.Lost -> try_restart ()
    | Workpool.Stopped -> ()
  and try_restart () =
    (* Restarts only follow a loss of completeness, which a pool member
       shares with its peers. *)
    Option.iter (fun s -> Workpool.lose s.seat_pool) seat;
    if budget_left () then begin
      restart ();
      Inputs.clear im;
      outer (`Run [||])
    end
    else
      (* The budget denied the restart itself: remember that the next
         action on resume is the restart, not a run from this stack. *)
      final_snapshot := Some (take_snapshot ~pending_restart:true ~stack:[||])
  in
  let begin_search () =
    match resume with
    | Some s when s.sn_pending_restart -> try_restart ()
    | Some s ->
      (* IM and RNG were restored above; re-run from the checkpointed
         pending stack exactly as the uninterrupted search would have. *)
      outer (`Run s.sn_stack)
    | None -> (
      match seat with
      | Some s when not s.seat_root ->
        (* Peers start idle; joining is a run boundary. *)
        if budget_left () then idle s
      | _ ->
        Inputs.clear im;
        outer (`Run [||]))
  in
  (match seat with
   | None -> begin_search ()
   | Some s -> (
     match begin_search () with
     | () -> if not !complete then Workpool.leave s.seat_pool
     | exception e ->
       Workpool.abandon s.seat_pool !taken;
       raise e));
  let verdict =
    match !first_bug with
    | Some bug -> Bug_found bug
    | None ->
      if !complete then Complete
      else begin
        match !stop with
        | `Interrupt -> Interrupted
        | `Time -> Time_exhausted
        | `Running | `Budget | `Cancel -> Budget_exhausted
      end
  in
  (* Partial verdicts get a final checkpoint, so an interrupted or
     timed-out search can be resumed without losing the tail since the
     last periodic save. *)
  (match verdict, on_checkpoint, !final_snapshot with
   | (Budget_exhausted | Time_exhausted | Interrupted), Some save, Some s ->
     save s;
     if tracing then Telemetry.emit sink (Telemetry.Checkpoint_saved { run = !runs })
   | _ -> ());
  if tracing then begin
    Telemetry.emit_phase_totals sink metrics;
    Telemetry.flush sink
  end;
  Option.iter (write_status ~final:true) status;
  { verdict;
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
    metrics;
    bugs = List.rev !bugs }

let run ?resume ?on_checkpoint ?checkpoint_every ?metrics ?(options = Options.default)
    (prog : Ram.Instr.program) : report =
  let ctx =
    make_ctx ?metrics ?deadline:(deadline_of_options options)
      ~incremental:options.Options.accel.Options.use_incremental
      ~use_breaker:options.Options.accel.Options.use_breaker
      ~seed:options.Options.search.Options.seed
      ~max_runs:options.Options.budget.Options.max_runs ()
  in
  search ?resume ?on_checkpoint ?checkpoint_every ~ctx ~options prog

let test_source ?(options = Options.default) ?(library_sigs = []) ~toplevel src =
  let metrics = Telemetry.create_metrics () in
  let prog =
    prepare ~metrics ~library_sigs ~toplevel
      ~depth:options.Options.search.Options.depth
      (Minic.Parser.parse_program src)
  in
  run ~metrics ~options prog

let verdict_tag = function
  | Bug_found _ -> "bug"
  | Complete -> "complete"
  | Budget_exhausted -> "budget"
  | Time_exhausted -> "time"
  | Interrupted -> "interrupted"

let verdict_to_string = function
  | Bug_found b ->
    Printf.sprintf "BUG FOUND: %s in %s (line %d) (run %d)"
      (Machine.fault_to_string b.bug_fault)
      b.bug_site.Machine.site_fn b.bug_site.Machine.site_loc.Minic.Loc.line b.bug_run
  | Complete -> "COMPLETE: all feasible paths explored, no bug"
  | Budget_exhausted -> "BUDGET EXHAUSTED: no bug found within the run budget"
  | Time_exhausted -> "TIME EXHAUSTED: no bug found within the time budget"
  | Interrupted -> "INTERRUPTED: search stopped at a run boundary"

let report_to_string r =
  (* Counters go through the abstract-stats assoc view; the key set is
     fixed by [Solver.to_assoc], so a missing key is a programming
     error. *)
  let a = Solver.to_assoc r.solver_stats in
  let g k = match List.assoc_opt k a with Some v -> v | None -> 0 in
  let base =
    Printf.sprintf
      "%s\n\
       runs: %d  restarts: %d  paths: %d  steps: %d  branch-dirs covered: %d\n\
       all_linear: %b  all_locs_definite: %b\n\
       solver: %d queries (%d sat, %d unsat, %d unknown), %d fast-path, %d simplex, %d \
       ne-splits\n\
       accel: %d cache hits, %d cache misses, %d constraints sliced away\n\
       distinct bugs: %d"
      (verdict_to_string r.verdict) r.runs r.restarts r.paths_explored r.total_steps
      r.branches_covered r.all_linear r.all_locs_definite (g "queries") (g "sat")
      (g "unsat") (g "unknown") (g "fast_path") (g "simplex_queries") (g "ne_splits")
      (g "cache_hits") (g "cache_misses") (g "constraints_sliced_away")
      (List.length r.bugs)
  in
  (* Resilience counters are printed only when nonzero, keeping default
     runs byte-identical to builds that predate them. *)
  let b = Buffer.create (String.length base + 64) in
  Buffer.add_string b base;
  if r.resource_limited > 0 then
    Buffer.add_string b
      (Printf.sprintf "\nresource-limited runs: %d" r.resource_limited);
  if g "deadline_overruns" > 0 then
    Buffer.add_string b
      (Printf.sprintf "\nsolver deadline overruns: %d" (g "deadline_overruns"));
  (* The breaker only acts when deadlines overrun, so on a default run
     these stay zero and the report stays byte-identical. *)
  if Solver.breaker_opens r.solver_stats > 0 || Solver.breaker_skips r.solver_stats > 0
  then
    Buffer.add_string b
      (Printf.sprintf "\nbreaker: %d opens, %d queries short-circuited"
         (Solver.breaker_opens r.solver_stats)
         (Solver.breaker_skips r.solver_stats));
  Buffer.contents b
