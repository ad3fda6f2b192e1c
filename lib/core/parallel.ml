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
   Telemetry is never shared: with several workers each one traces
   into a private ring buffer, replayed into the main sink in worker
   order at join, so the main sink is only ever written from the
   joining domain. [fan_out] below is the one place domains are
   spawned, for these workers and for campaign rounds alike. *)

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
  strategy : Strategy.t option;
  merged : Driver.report;
  workers : worker_report list;
  crashes : crash list;
  dropped : int;
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
  let coverage_sites =
    Coverage.union (List.map (fun (r : Driver.report) -> r.Driver.coverage_sites) reports)
  in
  (* Bugs: dedupe by (site_fn, site_pc, fault), keeping the cheapest
     witness, and order by that key, so the merged bug *set* does not
     depend on which worker raced to a shared defect first. *)
  let bugs =
    List.concat_map (fun (r : Driver.report) -> r.Driver.bugs) reports
    |> List.stable_sort (fun (a : Driver.bug) b -> compare a.Driver.bug_run b.Driver.bug_run)
    |> Driver.distinct_bugs Fun.id
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
    branches_covered = List.length coverage_sites;
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

(* A task of {!fan_out}, as it came back: the sink it traced into, its
   value or the exception that escaped it, and its wall clock. *)
type 'a joined = {
  sink : Telemetry.sink;
  result : ('a, string) result;
  dur_ns : int64;
}

(* The one place worker domains are spawned. Each domain claims tasks
   from a shared counter until none is left. With as many domains as
   tasks, no task ever waits for a domain: work-pool members rely on
   that, since a member that runs out of work waits until every peer
   has started. A task never lets an exception reach [Domain.join]: it comes
   back as [Error reason], so every domain is always joined. *)
let fan_out ~jobs ?(stop = fun () -> false) ~sink tasks =
  let k = Array.length tasks in
  let joined = Array.make k None in
  let next = Atomic.make 0 in
  let rec work () =
    let i = Atomic.fetch_and_add next 1 in
    if i < k && not (stop ()) then begin
      let sink = sink () in
      let t0 = Telemetry.now () in
      let result =
        match tasks.(i) sink with
        | v -> Ok v
        | exception e -> Error (Printexc.to_string e)
      in
      joined.(i) <- Some { sink; result; dur_ns = Int64.sub (Telemetry.now ()) t0 };
      work ()
    end
  in
  (match min jobs k with
   | 0 | 1 -> work ()
   | d -> Array.iter Domain.join (Array.init d (fun _ -> Domain.spawn work)));
  joined

let ring (config : Telemetry.config) =
  if Telemetry.enabled config.Telemetry.sink then
    Telemetry.ring ~capacity:config.Telemetry.worker_buffer
  else Telemetry.null

(* A lone worker traces straight into the main sink: nothing to replay. *)
let replay ~into sink =
  if sink == into then 0
  else begin
    Telemetry.replay sink ~into;
    Telemetry.dropped sink
  end

let dropped_warning ~remedy n =
  Printf.sprintf "trace: worker rings overflowed, %d oldest events dropped (%s)" n remedy

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
     store and private run pool, which stays byte-identical to
     [Driver.run]; each of its attempts gets a pool of its own. *)
  let store = if n > 1 then Some (Solver.Store.create ~workers:n) else None in
  let pool = if n > 1 then Some (Atomic.make t.base.O.budget.O.max_runs) else None in
  (* With the shadow off no branch is ever chosen: random testing runs
     no strategy, whatever [search.strategy] says, and has no path tree
     to split. *)
  let strategy =
    if t.base.O.exec.Concolic.symbolic then Some t.base.O.search.O.strategy else None
  in
  (* Two or more DFS workers split the tree through a work pool; slot
     0 starts at the root. *)
  let workpool =
    if n >= 2 && strategy = Some Strategy.Dfs then Some (Workpool.create ~members:n) else None
  in
  let worker ~respawn ~slot ~seed sink =
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
    let r = Driver.search ~ctx ~options prog in
    (* First finder flags the others; they drain at their next run
       boundary (the [should_stop] poll in [Driver.search]). *)
    if stop_on_first_bug && r.Driver.bugs <> [] then Atomic.set cancel true;
    { w_id = slot;
      w_seed = seed;
      w_report = r;
      w_jobs =
        Option.map
          (fun s -> { j_taken = s.Driver.seat_taken; j_donated = s.Driver.seat_donated })
          seat }
  in
  (* A lone worker traces straight into the main sink, so its report
     and trace are [Driver.run]'s. Every other task traces into a
     private ring: domains never contend on the main sink, and
     replaying the rings in worker order at join makes the trace
     deterministic. *)
  let ring () = ring t.base.O.telemetry in
  if tracing && n > 1 then
    for i = 0 to n - 1 do
      Telemetry.emit base_sink (Telemetry.Worker_spawn { worker = i; seed = seeds.(i) })
    done;
  let all_ran = Array.map (function Some j -> j | None -> assert false (* no [stop] *)) in
  let primary =
    all_ran
      (fan_out ~jobs:n
         ~sink:(if n = 1 then fun () -> base_sink else ring)
         (Array.init n (fun i -> worker ~respawn:false ~slot:i ~seed:seeds.(i))))
  in
  (* Supervision pass: every crashed slot is respawned exactly once,
     with a fresh derived seed and a fresh ring. With several workers
     the respawn claims runs from what is left of the shared pool; the
     crashed attempt's runs died with it, and its jobs went back to the
     work pool. A lone worker's respawn gets a private pool of the whole
     budget again. *)
  let crashed =
    List.filter (fun i -> Result.is_error primary.(i).result) (List.init n Fun.id)
  in
  let respawns =
    all_ran
      (fan_out ~jobs:n ~sink:ring
         (Array.of_list
            (List.map (fun i -> worker ~respawn:true ~slot:i ~seed:seeds.(n + i)) crashed)))
  in
  let respawn_of = Array.make n None in
  List.iteri (fun j i -> respawn_of.(i) <- Some respawns.(j)) crashed;
  let t0 = Telemetry.now () in
  let workers = ref [] in
  let crashes = ref [] in
  let dropped = ref 0 in
  let crash i ~seed reason ~respawned =
    let c = { c_worker = i; c_seed = seed; c_reason = reason; c_respawned = respawned } in
    crashes := c :: !crashes;
    if tracing then
      Telemetry.emit base_sink (Telemetry.Worker_crash { worker = i; reason; respawned })
  in
  let drain i (w : worker_report) sink =
    dropped := !dropped + replay ~into:base_sink sink;
    if tracing && n > 1 then
      Telemetry.emit base_sink
        (Telemetry.Worker_drain { worker = i; runs = w.w_report.Driver.runs });
    workers := w :: !workers
  in
  Array.iteri
    (fun i (j : worker_report joined) ->
      match j.result with
      | Ok w -> drain i w j.sink
      | Error reason ->
        crash i ~seed:seeds.(i) reason ~respawned:true;
        if tracing then
          Telemetry.emit base_sink (Telemetry.Worker_spawn { worker = i; seed = seeds.(n + i) });
        let r = Option.get respawn_of.(i) in
        (match r.result with
         | Ok w -> drain i w r.sink
         | Error reason2 -> crash i ~seed:seeds.(n + i) reason2 ~respawned:false))
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
  (* A lone worker's report is returned as it is, not merged, so that
     its field order (coverage_sites included) is [Driver.run]'s. *)
  let merged =
    match List.map (fun w -> w.w_report) workers with
    | [] -> empty_report ()
    | [ r ] when n = 1 -> r
    | reports -> merge reports
  in
  if n > 1 then begin
    let merge_ns = Int64.sub (Telemetry.now ()) t0 in
    Telemetry.add_phase merged.Driver.metrics Telemetry.Merge merge_ns;
    if tracing then
      Telemetry.emit base_sink
        (Telemetry.Phase_total { phase = Telemetry.Merge; dur_ns = merge_ns })
  end;
  if tracing then Telemetry.flush base_sink;
  { jobs = n; strategy; merged; workers; crashes; dropped = !dropped }

let report_to_string r =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Driver.report_to_string r.merged);
  Buffer.add_string buf (Printf.sprintf "\njobs: %d" r.jobs);
  List.iter
    (fun w ->
      Buffer.add_string buf
        (Printf.sprintf "\n  worker %d [%s, seed %d]: %s, %d runs, %d paths" w.w_id
           (match r.strategy with
            | Some s -> Strategy.to_string s
            | None -> "random-testing")
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
