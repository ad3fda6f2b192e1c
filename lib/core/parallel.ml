(* Multi-domain directed search. Each worker domain runs a
   [Driver.search] over its own [search_ctx] — its own PRNG stream,
   input vector and solver stats, and every worker runs the one
   strategy of [base]. Two or more DFS workers are members of one
   [Workpool]: worker 0 starts at the root, the others start idle, and
   busy members donate pending branches to idle ones, so together they
   walk the path tree once (paper Fig. 5; Theorem 1(b) needs every
   feasible path run once, not once per worker). BFS and random-branch
   workers each search on their own. The domains share only the
   immutable program, one cancellation atomic, the work pool, and the
   two lock-free accelerators: the solve store and the run pool.
   Telemetry is never shared: each worker traces into a private ring
   buffer, replayed into the main sink in worker order at join, so the
   main sink is only ever written from the joining domain. *)

module O = Driver.Options

type options = {
  base : Driver.options;
  jobs : int;
}

let options ?(jobs = 1) base = { base; jobs }

type job_counts = {
  j_taken : int;
  j_donated : int;
}

type worker_report = {
  w_id : int;
  w_seed : int;
  w_report : Driver.report;
  w_jobs : job_counts option;
}

type crash = {
  c_worker : int;
  c_seed : int;
  c_reason : string;
  c_respawned : bool;
}

type report = {
  jobs : int;
  strategy : Strategy.t;
  merged : Driver.report;
  workers : worker_report list;
  crashes : crash list;
}

let effective_jobs jobs =
  if jobs < 0 then invalid_arg "Parallel.run: jobs < 0"
  else if jobs = 0 then Domain.recommended_domain_count ()
  else jobs

(* Worker 0 inherits the base seed (so a one-worker run replays the
   sequential search exactly); the rest get a splitmix-derived stream
   that is a pure function of (base seed, worker index). *)
let worker_seeds ~base_seed n =
  let rng = Dart_util.Prng.create base_seed in
  Array.init n (fun i ->
      if i = 0 then base_seed else Int64.to_int (Dart_util.Prng.next_int64 rng))

let sum_stats (per_worker : Solver.stats list) =
  let s = Solver.create_stats () in
  List.iter (fun w -> Solver.add_stats ~into:s w) per_worker;
  s

let merge (reports : Driver.report list) : Driver.report =
  if reports = [] then invalid_arg "Parallel.merge: empty report list";
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 reports in
  let forall f = List.for_all f reports in
  (* Branch-direction coverage: union of the per-worker sets, sorted so
     the merged report is deterministic regardless of worker order. *)
  let coverage : (string * int * bool, unit) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun (r : Driver.report) ->
      List.iter (fun site -> Hashtbl.replace coverage site ()) r.Driver.coverage_sites)
    reports;
  let coverage_sites =
    List.sort compare (Hashtbl.fold (fun site () acc -> site :: acc) coverage [])
  in
  (* Bugs: dedupe by (site_fn, site_pc, fault) and order by that key,
     so the merged bug *set* does not depend on which worker raced to a
     shared defect first. *)
  let bug_sites : (string * int * Machine.fault, Driver.bug) Hashtbl.t =
    Hashtbl.create 16
  in
  List.iter
    (fun (r : Driver.report) ->
      List.iter
        (fun (b : Driver.bug) ->
          let key = Driver.bug_key b in
          match Hashtbl.find_opt bug_sites key with
          | None -> Hashtbl.replace bug_sites key b
          | Some prev ->
            (* Keep the cheapest witness for a deterministic merge. *)
            if b.Driver.bug_run < prev.Driver.bug_run then Hashtbl.replace bug_sites key b)
        r.Driver.bugs)
    reports;
  let bugs =
    Hashtbl.fold (fun _ b acc -> b :: acc) bug_sites []
    |> List.sort (fun a b -> compare (Driver.bug_key a) (Driver.bug_key b))
  in
  let verdict =
    match bugs with
    | b :: _ -> Driver.Bug_found b
    | [] ->
      (* One worker finishing a DFS search with completeness flags
         intact proves no bug exists at this depth, whatever the other
         workers managed. Otherwise the most informative partial
         cause wins: an interrupt or an expired time budget explains
         the early stop better than "budget exhausted". *)
      let any v = List.exists (fun (r : Driver.report) -> r.Driver.verdict = v) reports in
      if any Driver.Complete then Driver.Complete
      else if any Driver.Interrupted then Driver.Interrupted
      else if any Driver.Time_exhausted then Driver.Time_exhausted
      else Driver.Budget_exhausted
  in
  (* Phase timings are CPU-time-like under parallelism: the sum over
     workers, not the wall clock of the slowest one. *)
  let metrics = Telemetry.create_metrics () in
  List.iter
    (fun (r : Driver.report) -> Telemetry.add_metrics ~into:metrics r.Driver.metrics)
    reports;
  { Driver.verdict;
    runs = sum (fun r -> r.Driver.runs);
    restarts = sum (fun r -> r.Driver.restarts);
    total_steps = sum (fun r -> r.Driver.total_steps);
    branches_covered = Hashtbl.length coverage;
    coverage_sites;
    paths_explored = sum (fun r -> r.Driver.paths_explored);
    resource_limited = sum (fun r -> r.Driver.resource_limited);
    all_linear = forall (fun r -> r.Driver.all_linear);
    all_locs_definite = forall (fun r -> r.Driver.all_locs_definite);
    solver_stats = sum_stats (List.map (fun r -> r.Driver.solver_stats) reports);
    metrics;
    bugs }

(* Merged stand-in when every worker (and its respawn) died: no
   coverage, no completeness claim, budget spent without an answer. *)
let empty_report () =
  { Driver.verdict = Driver.Budget_exhausted;
    runs = 0;
    restarts = 0;
    total_steps = 0;
    branches_covered = 0;
    coverage_sites = [];
    paths_explored = 0;
    resource_limited = 0;
    all_linear = false;
    all_locs_definite = false;
    solver_stats = Solver.create_stats ();
    metrics = Telemetry.create_metrics ();
    bugs = [] }

let run ?(options = options O.default) (prog : Ram.Instr.program) : report =
  let t = options in
  let n = effective_jobs t.jobs in
  (* Compile once before spawning: workers on other domains then find
     the shared read-only compiled program in the cache instead of
     racing to build their own. *)
  if t.base.O.exec.Concolic.compile then Machine.precompile prog;
  (* Seeds [0, n): primary workers; seeds [n, 2n): the respawn stream,
     so a supervisor restart is as deterministic as the first spawn. *)
  let seeds = worker_seeds ~base_seed:t.base.O.search.O.seed (2 * n) in
  let stop_on_first_bug = t.base.O.budget.O.stop_on_first_bug in
  let base_sink = t.base.O.telemetry.Telemetry.sink in
  let tracing = Telemetry.enabled base_sink in
  let fs = t.base.O.fault in
  let deadline = Driver.deadline_of_options t.base in
  let cancel = Atomic.make false in
  let should_stop =
    if stop_on_first_bug && n > 1 then fun () -> Atomic.get cancel
    else fun () -> false
  in
  (* With several workers, one lock-free solve store answers every
     worker's queries, and the run budget is a single CAS-claimed pool:
     a worker that drains its subtree early hands its leftover budget
     to the others. A single worker keeps [Driver.make_ctx]'s solo
     store and a fixed budget, which stays byte-identical to
     [Driver.run]. *)
  let store = if n > 1 then Some (Solver.Store.create ~workers:n) else None in
  let pool = if n > 1 then Some (Atomic.make t.base.O.budget.O.max_runs) else None in
  (* Two or more DFS workers split the tree through a work pool; slot
     0 starts at the root. *)
  let strategy = t.base.O.search.O.strategy in
  let workpool =
    if n >= 2 && strategy = Strategy.Dfs then Some (Workpool.create ~members:n) else None
  in
  (* A worker body never lets an exception reach [Domain.join]: it
     returns [Error reason] instead, so the supervisor always joins
     every domain, replays the surviving rings and flushes the sink. *)
  let worker ?(respawn = false) ~slot ~seed sink () =
    let seat =
      Option.map
        (fun wp ->
          (* A respawn rejoins idle: a crashed root requeued the root job. *)
          if respawn then Workpool.join wp;
          Driver.seat ~root:(slot = 0 && not respawn) wp)
        workpool
    in
    let should_stop =
      (* Crash injection rides the run-boundary poll: the injected
         exception surfaces mid-search exactly where a real defect in
         the search loop would. *)
      if Dart_util.Faultsim.is_on fs then (fun () ->
        if Dart_util.Faultsim.fire ~key:slot fs Dart_util.Faultsim.Worker_crash then
          Dart_util.Faultsim.inject_crash Dart_util.Faultsim.Worker_crash
        else should_stop ())
      else should_stop
    in
    let ctx =
      Driver.make_ctx ?seat ~should_stop ?deadline ?pool
        ?store:(Option.map (fun st -> (st, slot)) store)
        ~incremental:t.base.O.accel.O.use_incremental
        ~use_breaker:t.base.O.accel.O.use_breaker ~seed
        ~max_runs:t.base.O.budget.O.max_runs ()
    in
    let options =
      { t.base with
        O.telemetry =
          { t.base.O.telemetry with
            Telemetry.sink;
            (* Only a lone worker may own the status file: concurrent
               domains each writing tmp+rename would race on it. The
               CLI already rejects --status with --jobs > 1. *)
            status_path =
              (if n = 1 then t.base.O.telemetry.Telemetry.status_path else None) } }
    in
    match Driver.search ~ctx ~options prog with
    | r ->
      (* First finder flags the others; they drain at their next run
         boundary (the [should_stop] poll in [Driver.search]). *)
      if stop_on_first_bug && r.Driver.bugs <> [] then Atomic.set cancel true;
      Ok
        { w_id = slot;
          w_seed = seed;
          w_report = r;
          w_jobs =
            Option.map
              (fun s ->
                { j_taken = s.Driver.seat_taken; j_donated = s.Driver.seat_donated })
              seat }
    | exception e -> Error (Printexc.to_string e)
  in
  if n = 1 then begin
    (* Single worker: no merge pass and the main sink is handed straight
       to the search, so report and trace — field order of
       coverage_sites included — are identical to [Driver.run]. *)
    match worker ~slot:0 ~seed:seeds.(0) base_sink () with
    | Ok w -> { jobs = 1; strategy; merged = w.w_report; workers = [ w ]; crashes = [] }
    | Error reason ->
      let crash1 =
        { c_worker = 0; c_seed = seeds.(0); c_reason = reason; c_respawned = true }
      in
      if tracing then begin
        Telemetry.emit base_sink
          (Telemetry.Worker_crash { worker = 0; reason; respawned = true });
        Telemetry.emit base_sink (Telemetry.Worker_spawn { worker = 0; seed = seeds.(1) })
      end;
      (match worker ~slot:0 ~seed:seeds.(1) base_sink () with
       | Ok w ->
         { jobs = 1; strategy; merged = w.w_report; workers = [ w ]; crashes = [ crash1 ] }
       | Error reason2 ->
         if tracing then begin
           Telemetry.emit base_sink
             (Telemetry.Worker_crash { worker = 0; reason = reason2; respawned = false });
           Telemetry.flush base_sink
         end;
         { jobs = 1;
           strategy;
           merged = empty_report ();
           workers = [];
           crashes =
             [ crash1;
               { c_worker = 0; c_seed = seeds.(1); c_reason = reason2; c_respawned = false }
             ] })
  end
  else begin
    (* Each worker traces into a private ring: domains never contend on
       the main sink, and replaying the rings in worker order at join
       makes the merged trace deterministic. *)
    let ring () =
      if tracing then Telemetry.ring ~capacity:t.base.O.telemetry.Telemetry.worker_buffer
      else Telemetry.null
    in
    let wsinks = Array.init n (fun _ -> ring ()) in
    if tracing then
      Array.iteri
        (fun i seed ->
          if i < n then
            Telemetry.emit base_sink (Telemetry.Worker_spawn { worker = i; seed }))
        seeds;
    let domains =
      Array.init n (fun i -> Domain.spawn (worker ~slot:i ~seed:seeds.(i) wsinks.(i)))
    in
    let primary = Array.map Domain.join domains in
    (* Supervision pass: every crashed slot is respawned exactly once,
       with a fresh derived seed and a fresh ring. The respawn claims
       runs from what is left of the shared pool; the crashed attempt's
       runs died with its domain, and its jobs went back to the work
       pool. *)
    let rsinks = Array.make n Telemetry.null in
    let respawns =
      Array.init n (fun i ->
          match primary.(i) with
          | Ok _ -> None
          | Error _ ->
            rsinks.(i) <- ring ();
            Some
              (Domain.spawn (worker ~respawn:true ~slot:i ~seed:seeds.(n + i) rsinks.(i))))
    in
    let respawns = Array.map (Option.map Domain.join) respawns in
    let t0 = Telemetry.now () in
    let workers = ref [] in
    let crashes = ref [] in
    let drain i (w : worker_report) sink =
      if tracing then begin
        Telemetry.replay sink ~into:base_sink;
        Telemetry.emit base_sink
          (Telemetry.Worker_drain { worker = i; runs = w.w_report.Driver.runs })
      end;
      workers := w :: !workers
    in
    Array.iteri
      (fun i result ->
        match result with
        | Ok w -> drain i w wsinks.(i)
        | Error reason ->
          crashes :=
            { c_worker = i; c_seed = seeds.(i); c_reason = reason; c_respawned = true }
            :: !crashes;
          if tracing then begin
            Telemetry.emit base_sink
              (Telemetry.Worker_crash { worker = i; reason; respawned = true });
            Telemetry.emit base_sink
              (Telemetry.Worker_spawn { worker = i; seed = seeds.(n + i) })
          end;
          (match respawns.(i) with
           | Some (Ok w) -> drain i w rsinks.(i)
           | Some (Error reason2) ->
             crashes :=
               { c_worker = i;
                 c_seed = seeds.(n + i);
                 c_reason = reason2;
                 c_respawned = false }
               :: !crashes;
             if tracing then
               Telemetry.emit base_sink
                 (Telemetry.Worker_crash { worker = i; reason = reason2; respawned = false })
           | None -> assert false))
      primary;
    let workers = List.rev !workers in
    let crashes = List.rev !crashes in
    (* A job a crashed member requeued after the pool terminated, whose
       taker then crashed as well, was never walked: the members' own
       [Complete] claims do not cover it. *)
    let workers =
      match workpool with
      | Some wp when Workpool.stranded wp ->
        List.map
          (fun w ->
            if w.w_report.Driver.verdict = Driver.Complete then
              { w with w_report = { w.w_report with Driver.verdict = Driver.Budget_exhausted } }
            else w)
          workers
      | _ -> workers
    in
    let merged =
      match List.map (fun w -> w.w_report) workers with
      | [] -> empty_report ()
      | reports -> merge reports
    in
    let merge_ns = Int64.sub (Telemetry.now ()) t0 in
    Telemetry.add_phase merged.Driver.metrics Telemetry.Merge merge_ns;
    if tracing then begin
      Telemetry.emit base_sink
        (Telemetry.Phase_total { phase = Telemetry.Merge; dur_ns = merge_ns });
      Telemetry.flush base_sink
    end;
    { jobs = n; strategy; merged; workers; crashes }
  end

let report_to_string r =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Driver.report_to_string r.merged);
  Buffer.add_string buf (Printf.sprintf "\njobs: %d" r.jobs);
  List.iter
    (fun w ->
      Buffer.add_string buf
        (Printf.sprintf "\n  worker %d [%s, seed %d]: %s, %d runs, %d paths" w.w_id
           (Strategy.to_string r.strategy)
           w.w_seed
           (Driver.verdict_tag w.w_report.Driver.verdict)
           w.w_report.Driver.runs w.w_report.Driver.paths_explored);
      Option.iter
        (fun j ->
          Buffer.add_string buf
            (Printf.sprintf ", %d jobs taken, %d donated" j.j_taken j.j_donated))
        w.w_jobs)
    r.workers;
  (* A lone worker's respawn re-runs the fixed budget; with several
     workers the budget is one pool, so a respawn claims what is left
     of it and the runs an abandoned slot claimed are lost. *)
  let respawned, abandoned =
    if r.jobs = 1 then
      ("respawned with a fresh seed, budget re-run", "not respawned, budget share lost")
    else
      ( "respawned with a fresh seed, claims what is left of the pooled budget",
        "not respawned, the runs it claimed are lost" )
  in
  List.iter
    (fun c ->
      Buffer.add_string buf
        (Printf.sprintf "\n  worker %d crashed [seed %d]: %s; %s" c.c_worker c.c_seed
           c.c_reason
           (if c.c_respawned then respawned else abandoned)))
    r.crashes;
  Buffer.contents buf
