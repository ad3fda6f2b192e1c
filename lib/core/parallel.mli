(** Multi-domain directed search.

    [run] spreads the search over [jobs] worker domains, each executing
    a {!Driver.search} with the strategy of [base] and its own PRNG
    stream, input vector and solver stats, and merges the worker
    reports. With more than one worker, the workers share one
    {!Solver.Store} and claim runs from one pooled budget. Two or more
    DFS workers also share one {!Workpool.t}: worker 0 starts at the
    root, the others start idle, and busy workers donate pending
    branches (path-prefix jobs, as in Cloud9) to idle ones, so the path
    tree is walked once, not once per worker. BFS and random-branch
    workers each search on their own, drawing on the same pooled
    budget.

    Determinism contract:
    - [jobs = 1] reproduces {!Driver.run} bit for bit (same seed, same
      budget, no merge pass).
    - For any [jobs = N], which worker walks which subtree depends on
      scheduling, so per-worker run counts vary between executions.
      When the DFS workers exhaust the tree, the merged [runs],
      [paths_explored], [total_steps], coverage and verdict equal
      [jobs = 1]'s exactly: every feasible path is run once, by some
      worker. With [stop_on_first_bug] cancellation, late workers may
      drain at different run counts across executions, but any bug
      reported is always a real, replayable witness and single-defect
      workloads yield the same verdict and deduped bug set as
      [jobs = 1]. *)

type options = {
  base : Driver.options;
      (** [base.budget.max_runs] is the {e total} budget, pooled
          across workers; [base.search.seed] seeds worker 0 directly
          and derives the other workers' streams.
          [base.telemetry.sink] receives the merged trace: a lone
          worker traces straight into it; with more than one worker
          each one traces into a private ring of
          [base.telemetry.worker_buffer] events, replayed into the main
          sink in worker order at join (bracketed by [Worker_spawn] /
          [Worker_drain] events). A respawned worker always traces
          into a ring. Every worker runs [base.search.strategy]. *)
  jobs : int; (* 0 = [Domain.recommended_domain_count ()] *)
}

val options : ?jobs:int -> Driver.options -> options
(** [options base] defaults to [jobs = 1]. *)

type job_counts = {
  j_taken : int; (* jobs taken from the work pool *)
  j_donated : int; (* pending branches donated to idle peers *)
}

type worker_report = {
  w_id : int;
  w_seed : int;
  w_report : Driver.report;
  w_jobs : job_counts option; (* [None] unless a work-pool member *)
}

type crash = {
  c_worker : int; (* worker slot that died *)
  c_seed : int; (* the seed of the attempt that crashed *)
  c_reason : string; (* printed exception *)
  c_respawned : bool;
      (* [true]: the supervisor restarted the slot once with a fresh
         derived seed; [false]: the respawn itself crashed and the slot
         was abandoned *)
}

type report = {
  jobs : int; (* actual worker count after resolving [jobs = 0] *)
  strategy : Strategy.t option;
      (* the one strategy every worker ran; [None] under random testing
         ([exec.symbolic = false]), where no branch is ever chosen *)
  merged : Driver.report;
  workers : worker_report list;
      (* surviving workers (respawns included), in worker-id order *)
  crashes : crash list; (* in worker-id order; [] on a healthy run *)
  dropped : int;
      (* trace events the workers' rings overwrote before the join
         replayed them (see {!replay}); 0 when nothing was lost *)
}

val worker_seeds : base_seed:int -> int -> int array
(** Per-worker PRNG seeds: worker 0 gets [base_seed] itself, the rest
    get splitmix-derived values — a pure function of the base seed. *)

val merge : Driver.report list -> Driver.report
(** Merge worker reports: bugs deduped by {!Driver.bug_key} (keeping
    the cheapest witness, ordered by key), branch-direction coverage
    unioned and sorted, run/step/restart/path counters, solver stats
    and phase metrics summed (so merged timings read as CPU time, not
    wall clock), completeness flags conjoined. The verdict is
    [Bug_found] if any worker found a bug, else [Complete] if any
    worker's DFS search finished exhaustively, else the most
    informative partial cause across workers ([Interrupted], then
    [Time_exhausted], then [Budget_exhausted]).
    @raise Invalid_argument on the empty list. *)

type 'a joined = {
  sink : Telemetry.sink; (* the sink the task traced into *)
  result : ('a, string) result; (* [Error] holds the printed exception *)
  dur_ns : int64; (* the task's wall clock *)
}

val fan_out :
  jobs:int ->
  ?stop:(unit -> bool) ->
  sink:(unit -> Telemetry.sink) ->
  (Telemetry.sink -> 'a) array ->
  'a joined option array
(** [fan_out ~jobs ~sink tasks] runs the [k] tasks on [min jobs k]
    domains, inline on the calling domain when that is 1, and returns
    when all of them have. This is the one place worker domains are
    spawned: {!run}'s workers and their respawns and every
    {!Campaign.run} round go through it. Each task is called with a
    fresh [sink ()] and claimed from a shared counter; with [jobs >= k]
    no task waits for a domain. An exception that escapes a task becomes
    [Error reason] and never reaches [Domain.join]. A task that is not
    started because [stop ()] (polled before each start, default never)
    returned [true] is [None]. *)

val ring : Telemetry.config -> Telemetry.sink
(** A private ring of [worker_buffer] events for one task, or the null
    sink when the config's main sink is off. *)

val replay : into:Telemetry.sink -> Telemetry.sink -> int
(** Replay a task's ring into the main sink and return how many of its
    oldest events the ring overwrote. A task that traced straight into
    [into] has nothing to replay: 0. *)

val dropped_warning : int -> string
(** The warning for a trace that lost events to full rings, shared by
    [dartc] and campaigns. *)

val run : ?options:options -> Ram.Instr.program -> report
(** Run the parallel search on a prepared program (entry point
    {!Driver_gen.wrapper_name}). With [stop_on_first_bug], the first
    worker to find a bug flags a shared atomic and the others drain at
    their next run boundary. [base.budget.time_budget_ns] is turned
    into one absolute deadline shared by every worker.

    One supervision path serves every worker count: the workers run
    through {!fan_out} (a lone worker inline, on the calling domain),
    then the crashed slots' respawns do, then the join settles the
    slots in worker order. At [jobs = 1] the surviving worker's report
    is returned unmerged.

    Crash supervision: a worker whose search raises never takes the
    join down — the failure is recorded as a {!crash} (and a
    [Telemetry.Worker_crash] event), every domain is still joined, the
    surviving workers' rings are replayed (their lost events counted
    in [dropped]) and the sink flushed. A
    crashed work-pool member first requeues every job it took and
    leaves the pool's idle accounting, so its peers walk its subtrees
    again instead of waiting for it. Each crashed slot is respawned
    exactly once with a deterministically derived fresh seed (a lone
    worker's respawn gets the whole budget again; with several workers
    it claims from what is left of the pool, and a pool member rejoins
    the work pool idle); if the respawn crashes too, the slot is
    abandoned and the merge proceeds over the survivors (an all-crashed
    run merges to an empty [Budget_exhausted] report).
    @raise Invalid_argument if [jobs < 0]. *)

val report_to_string : report -> string
(** The merged report followed by a one-line per-worker summary; a
    work-pool member's line ends with its jobs taken and donated. A
    crash line says what became of the budget: at [jobs = 1] a respawn
    re-runs it; with several workers a respawn claims what is left of
    the pool, and an abandoned slot's claimed runs are lost. *)
