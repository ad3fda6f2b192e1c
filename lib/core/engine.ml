type outcome =
  | Directed_report of Driver.report
  | Random_report of Random_search.report
  | Parallel_report of Parallel.report

let effective_options session (target : Target.t) =
  let base = Session.options session in
  let budget = base.Driver.Options.budget in
  let budget =
    match target.Target.tg_max_runs with
    | Some m -> { budget with Driver.Options.max_runs = m }
    | None -> budget
  in
  let budget =
    match target.Target.tg_time_budget_ns with
    | Some t -> { budget with Driver.Options.time_budget_ns = Some t }
    | None -> budget
  in
  let telemetry =
    match target.Target.tg_sink with
    | None -> base.Driver.Options.telemetry
    | Some sink ->
      (* A target-private sink (campaign slice ring) also takes over
         status reporting: the campaign aggregates across targets and
         writes the status file itself, so the slice must not. *)
      { base.Driver.Options.telemetry with Telemetry.sink; status_path = None }
  in
  { base with Driver.Options.budget; telemetry }

let run ?(mode = `Directed) ?resume ?on_checkpoint ?checkpoint_every ?metrics session
    target =
  let has_checkpointing =
    resume <> None || on_checkpoint <> None || checkpoint_every <> None
  in
  if has_checkpointing && mode = `Random then
    invalid_arg "Engine.run: checkpoint/resume describe a directed search";
  if has_checkpointing && Session.jobs session <> 1 then
    invalid_arg "Engine.run: checkpoint/resume require a sequential session (jobs = 1)";
  let metrics = match metrics with Some m -> m | None -> Telemetry.create_metrics () in
  let prog = Session.prepare ~metrics session target in
  let options = effective_options session target in
  let sink = options.Driver.Options.telemetry.Telemetry.sink in
  match mode with
  | `Random ->
    let deadline =
      Option.map
        (fun ns -> Int64.add (Telemetry.now ()) ns)
        options.Driver.Options.budget.Driver.Options.time_budget_ns
    in
    let report =
      Random_search.run ~seed:options.Driver.Options.search.Driver.Options.seed
        ~max_runs:options.Driver.Options.budget.Driver.Options.max_runs ?deadline
        ~exec:options.Driver.Options.exec ~telemetry:sink ~metrics prog
    in
    if Telemetry.enabled sink then begin
      Telemetry.emit_phase_totals sink metrics;
      Telemetry.flush sink
    end;
    Random_report report
  | `Directed ->
    if Session.jobs session = 1 then begin
      (* Sequential: the search shares the caller's metrics record, so
         a preparation performed just above (cache miss) lands in the
         same phase totals the report carries. *)
      let ctx =
        Driver.make_ctx ~should_stop:(Session.should_stop session) ~metrics
          ?deadline:(Driver.deadline_of_options options)
          ~incremental:options.Driver.Options.accel.Driver.Options.use_incremental
          ~use_breaker:options.Driver.Options.accel.Driver.Options.use_breaker
          ?breaker:target.Target.tg_breaker
          ~seed:options.Driver.Options.search.Driver.Options.seed
          ~max_runs:options.Driver.Options.budget.Driver.Options.max_runs ()
      in
      Directed_report
        (Driver.search ?resume ?on_checkpoint ?checkpoint_every ~ctx ~options prog)
    end
    else begin
      let popts = Parallel.options ~jobs:(Session.jobs session) options in
      let r = Parallel.run ~options:popts prog in
      (* Workers never see preparation time: fold it into the merged
         metrics (and the trace) here. *)
      Telemetry.add_metrics ~into:r.Parallel.merged.Driver.metrics metrics;
      if Telemetry.enabled sink then begin
        Telemetry.emit sink
          (Telemetry.Phase_total
             { phase = Telemetry.Lower; dur_ns = metrics.Telemetry.lower_ns });
        Telemetry.flush sink
      end;
      Parallel_report r
    end

let exit_code = function
  | Directed_report r | Parallel_report { Parallel.merged = r; _ } -> (
    match r.Driver.verdict with
    | Driver.Bug_found _ -> 1
    | Driver.Complete | Driver.Budget_exhausted -> 0
    | Driver.Time_exhausted | Driver.Interrupted -> 3)
  | Random_report r -> (
    match r.Random_search.verdict with
    | `Bug_found _ -> 1
    | `No_bug -> 0
    | `Time_exhausted | `Interrupted -> 3)
