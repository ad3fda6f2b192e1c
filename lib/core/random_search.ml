type report = {
  verdict : [ `Bug_found of Driver.bug | `No_bug | `Time_exhausted | `Interrupted ];
  runs : int;
  total_steps : int;
  branches_covered : int;
  resource_limited : int;
  coverage_sites : (string * int * bool) list;
}

let run ?(seed = 42) ?(max_runs = 10_000) ?deadline ?(exec = Concolic.default_exec_options)
    ?(telemetry = Telemetry.null) ?(metrics = Telemetry.create_metrics ()) prog =
  let exec = { exec with Concolic.symbolic = false } in
  let rng = Dart_util.Prng.create seed in
  let im = Inputs.create () in
  let coverage : (string * int * bool, unit) Hashtbl.t = Hashtbl.create 256 in
  let total_steps = ref 0 in
  let resource_limited = ref 0 in
  let entry = Driver_gen.wrapper_name in
  let tracing = Telemetry.enabled telemetry in
  let search_start = Telemetry.now () in
  let finish verdict runs =
    if tracing then begin
      Telemetry.emit_phase_totals telemetry metrics;
      Telemetry.flush telemetry
    end;
    { verdict;
      runs;
      total_steps = !total_steps;
      branches_covered = Hashtbl.length coverage;
      resource_limited = !resource_limited;
      coverage_sites = Hashtbl.fold (fun site () acc -> site :: acc) coverage [] }
  in
  let rec loop run_index =
    (* Same run-boundary stop discipline as [Driver.search]: interrupt
       first, then the wall-clock budget, then the run budget. *)
    if Cancel.requested () then finish `Interrupted (run_index - 1)
    else if
      match deadline with
      | None -> false
      | Some d -> Int64.compare (Telemetry.now ()) d >= 0
    then finish `Time_exhausted (run_index - 1)
    else if run_index > max_runs then finish `No_bug max_runs
    else begin
      Inputs.clear im; (* fresh random inputs every run *)
      if tracing then Telemetry.emit telemetry (Telemetry.Run_start { run = run_index });
      let t0 = Telemetry.now () in
      let data = Concolic.run_once ~opts:exec ~rng ~im ~prev_stack:[||] ~entry prog in
      let dur = Int64.sub (Telemetry.now ()) t0 in
      Telemetry.add_phase metrics Telemetry.Execute dur;
      Telemetry.Hist.add metrics.Telemetry.run_hist dur;
      if tracing then
        Telemetry.emit telemetry
          (Telemetry.Run_end
             { run = run_index;
               outcome = Concolic.outcome_to_string data.Concolic.outcome;
               steps = data.Concolic.steps;
               dur_ns = dur });
      total_steps := !total_steps + data.Concolic.steps;
      (* Same filtering as Driver.search: harness-internal sites
         ([__dart_*], [__coin]) are not program coverage. *)
      List.iter
        (fun ((fn, _, _) as site) ->
          if not (Driver_gen.is_harness_site fn) then Hashtbl.replace coverage site ())
        data.Concolic.branch_sites;
      (* Same coverage-over-time sample the directed search emits, so
         directed-vs-random trajectories are comparable per trace. *)
      if tracing then
        Telemetry.emit telemetry
          (Telemetry.Cover_point
             { run = run_index;
               covered = Hashtbl.length coverage;
               elapsed_ns = Int64.sub (Telemetry.now ()) search_start });
      match data.Concolic.outcome with
      | Concolic.Run_fault ((Machine.Step_limit | Machine.Call_depth), _) ->
        (* Resource-limited run (possible non-termination): not a bug;
           the next run's fresh random inputs are the restart. *)
        incr resource_limited;
        loop (run_index + 1)
      | Concolic.Run_fault (fault, site) ->
        if tracing then
          Telemetry.emit telemetry
            (Telemetry.Bug_found
               { fn = site.Machine.site_fn;
                 pc = site.Machine.site_pc;
                 fault = Machine.fault_to_string fault;
                 run = run_index });
        let bug =
          { Driver.bug_fault = fault;
            bug_site = site;
            bug_run = run_index;
            bug_inputs = Inputs.to_alist im }
        in
        finish (`Bug_found bug) run_index
      | Concolic.Run_prediction_failure ->
        (* Impossible with an empty prediction stack. *)
        assert false
      | Concolic.Run_halted -> loop (run_index + 1)
    end
  in
  loop 1

let test_source ?seed ?max_runs ?deadline ?(depth = 1) ?(library_sigs = []) ?telemetry
    ?metrics ~toplevel src =
  let ast = Minic.Parser.parse_program src in
  let prog = Driver.prepare ?metrics ~library_sigs ~toplevel ~depth ast in
  run ?seed ?max_runs ?deadline ?telemetry ?metrics prog

let report_to_string r =
  let v =
    match r.verdict with
    | `Bug_found b ->
      Printf.sprintf "BUG FOUND: %s in %s (line %d) (run %d)"
        (Machine.fault_to_string b.Driver.bug_fault)
        b.Driver.bug_site.Machine.site_fn
        b.Driver.bug_site.Machine.site_loc.Minic.Loc.line b.Driver.bug_run
    | `No_bug -> "NO BUG within budget"
    | `Time_exhausted -> "TIME EXHAUSTED: no bug found within the time budget"
    | `Interrupted -> "INTERRUPTED: search stopped at a run boundary"
  in
  let base =
    Printf.sprintf "%s\nruns: %d  steps: %d  branch-dirs covered: %d" v r.runs
      r.total_steps r.branches_covered
  in
  if r.resource_limited > 0 then
    base ^ Printf.sprintf "\nresource-limited runs: %d" r.resource_limited
  else base
