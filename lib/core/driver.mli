(** run_DART (paper Figure 2): the outer random-restart loop and the
    inner directed-search loop, plus program preparation (driver
    generation, typechecking, lowering).

    The paper's random-testing baseline is the same search with the
    direction removed: options whose [exec.symbolic] is [false]. Such a
    run tracks no path constraint and clears [all_linear], so the solve
    finds no candidate and every run is followed by a restart with
    fresh random inputs. The verdict is then [Bug_found],
    [Budget_exhausted], [Time_exhausted] or [Interrupted], never
    [Complete]. *)

(** Search configuration, grouped by concern so new knobs widen one
    sub-record instead of a flat options type: [budget] (how much work),
    [search] (where randomness and direction come from), [accel] (the
    exact accelerations of the solve path), [exec] (the instrumented
    machine), [telemetry] (tracing sinks and buffers). Build with
    {!Options.make}, which defaults every field to {!Options.default}'s
    value. *)
module Options : sig
  type budget = {
    max_runs : int; (* overall budget of instrumented runs *)
    stop_on_first_bug : bool;
    time_budget_ns : int64 option;
        (* wall-clock budget for the whole search; [None] = unbounded.
           Checked at run boundaries: an over-budget search drains with
           the [Time_exhausted] verdict and a complete partial report.
           {!Parallel.run} turns it into one deadline for all workers,
           and {!Campaign.run} applies it once, campaign-wide: one
           deadline from the campaign's start for every slice of every
           target, not a fresh budget per slice *)
    solver_deadline_ns : int64 option;
        (* per-solver-query deadline; an overrunning query degrades to
           [Solver.Unknown] (counted in [Solver.deadline_overruns]) *)
  }

  type search = {
    seed : int;
    depth : int; (* iterations of the toplevel function per run (paper §3.2) *)
    strategy : Strategy.t;
  }

  (** Acceleration switches, all on by default and all result-exact on
      healthy workloads. Turning one off is an ablation that tests and
      benchmarks set here; [dartc] has a flag only for [use_cache]
      ([--no-cache]), which makes a resumed search repeat the
      uninterrupted one exactly. *)
  type accel = {
    use_slicing : bool; (* independence slicing of path constraints (default on) *)
    use_cache : bool;
        (* solve caching through the context's {!Solver.Store} (default
           on) *)
    use_incremental : bool;
        (* push/pop incremental solving through a per-worker
           {!Solver.Incr} context (default on; results identical) *)
    use_breaker : bool;
        (* per-site solver circuit breaker ({!Solver.Breaker}):
           consecutive deadline-overrun Unknowns at one branch site
           short-circuit further queries there (default on; inert —
           byte-identical output — unless a solver deadline overruns) *)
  }

  type campaign = {
    per_function_runs : int;
        (* the slice of instrumented runs a target gets per scheduler
           round; frontier-rich targets keep getting refills, one
           slice at a time *)
    retire_after : int;
        (* consecutive slices without a new branch direction before a
           target is retired as saturated *)
    retry_limit : int;
        (* consecutive faulted slices (worker crash or other escaped
           exception) before a target is retired as quarantined;
           faults below the limit back off exponentially *)
  }

  type t = {
    budget : budget;
    search : search;
    accel : accel;
    campaign : campaign; (* read only by {!Campaign}; inert elsewhere *)
    exec : Concolic.exec_options;
    telemetry : Telemetry.config;
    fault : Dart_util.Faultsim.t;
        (* deterministic fault injection ({!Dart_util.Faultsim}); the
           default [Faultsim.off] costs one pattern match per
           injection point *)
  }

  val default : t
  (** seed 42, depth 1, 10_000 runs, DFS, stop on first bug, both
      accelerations on, default machine, tracing off, no time budget,
      no solver deadline, fault injection off; campaign: 200 runs per
      slice, retire after 2 stale slices,
      quarantine after 3 consecutive faults. *)

  val make :
    ?seed:int ->
    ?depth:int ->
    ?max_runs:int ->
    ?strategy:Strategy.t ->
    ?stop_on_first_bug:bool ->
    ?time_budget_ns:int64 ->
    ?solver_deadline_ns:int64 ->
    ?use_slicing:bool ->
    ?use_cache:bool ->
    ?use_incremental:bool ->
    ?use_breaker:bool ->
    ?per_function_runs:int ->
    ?retire_after:int ->
    ?retry_limit:int ->
    ?exec:Concolic.exec_options ->
    ?telemetry:Telemetry.config ->
    ?faultsim:Dart_util.Faultsim.t ->
    unit ->
    t
  (** Smart constructor: every omitted argument takes {!default}'s
      value. *)
end

type options = Options.t

type bug = {
  bug_fault : Machine.fault;
  bug_site : Machine.site;
  bug_run : int; (* 1-based index of the run that found it *)
  bug_inputs : (int * int) list;
      (* input id -> value: exactly the inputs the faulting run read, a
         minimal replayable witness (stale IM entries from earlier
         solver iterations are excluded) *)
}

val bug_key : bug -> string * int * Machine.fault
(** Dedup identity of a bug: [(site_fn, site_pc, fault)]. Two bugs with
    equal keys are the same defect found along different paths. *)

val distinct_bugs : ('a -> bug) -> 'a list -> 'a list
(** The first element of each {!bug_key}, in list order, sorted by
    key: how a parallel merge and a campaign dedupe their bugs. *)

type verdict =
  | Bug_found of bug
  | Complete
      (** Directed search exhausted with all completeness flags intact:
          Theorem 1(b) — every feasible path was exercised, no bug
          exists (within [depth]). *)
  | Budget_exhausted (* max_runs reached, or incompleteness forced restarts *)
  | Time_exhausted (* the wall-clock budget expired at a run boundary *)
  | Interrupted
      (** {!Cancel.request} (SIGINT/SIGTERM in dartc) was observed at a
          run boundary; the report is complete for the work done. *)

type report = {
  verdict : verdict;
  runs : int; (* instrumented runs ("iterations" in the paper's tables) *)
  restarts : int; (* fresh random restarts of the outer loop *)
  total_steps : int;
  branches_covered : int;
      (* distinct (function, pc, direction), driver-internal functions
         excluded — consistent with [Coverage.compute] *)
  coverage_sites : (string * int * bool) list; (* the triples themselves *)
  paths_explored : int; (* completed runs, i.e. distinct execution paths *)
  resource_limited : int;
      (* runs that died on [Step_limit] or [Call_depth]: counted as
         possibly-non-terminating executions (paper §3), each triggering
         a fresh random restart, never reported as bugs. Nonzero voids
         the [Complete] claim. *)
  all_linear : bool;
  all_locs_definite : bool;
  solver_stats : Solver.stats;
  metrics : Telemetry.metrics;
      (* per-phase wall clock (execute/solve, plus lower when prepared
         through [test_source] or [prepare ~metrics]); always
         collected, never printed by [report_to_string] *)
  bugs : bug list; (* every distinct bug site seen (>= 1 when Bug_found) *)
}

type snapshot = {
  sn_pending_restart : bool;
      (* the budget denied a restart: on resume, perform the restart
         (and its telemetry event) before the first run *)
  sn_stack : Concolic.branch_record array; (* pending stack for the next run *)
  sn_im : (int * int * Inputs.kind) list; (* full input vector, id-sorted *)
  sn_rng : int64; (* PRNG state — the whole randomness stream *)
  sn_runs : int;
  sn_restarts : int;
  sn_total_steps : int;
  sn_paths : int;
  sn_resource_limited : int;
  sn_all_linear : bool;
  sn_all_locs_definite : bool;
  sn_coverage : (string * int * bool) list; (* sorted, deterministic *)
  sn_stats : (string * int) list; (* Solver.to_assoc view *)
  sn_bugs : bug list; (* chronological *)
}
(** A run-boundary checkpoint of everything {!search} mutates. The run
    boundary fully determines the continuation: resuming from a
    snapshot replays the exact run sequence the uninterrupted search
    would have performed (same PRNG stream, same IM, same pending
    stack), so the final coverage is identical. Serialized by
    {!Checkpoint}. *)

(** A search's claim on the run budget: a reservation of runs claimed
    one at a time, by CAS, from a pool. A solo search owns a private
    pool of [max_runs]; every worker of a parallel search shares one,
    so a worker that exhausts its subtree early leaves the remaining
    budget to its peers. A search stops once it holds no reservation
    for its next run and the pool is dry; a resumed search first claims
    the runs its snapshot restored, so a private pool stops it at the
    run an uninterrupted search would have stopped at. *)
type run_budget = { pb_pool : int Atomic.t; mutable pb_claimed : int }

(** A unit of work in a parallel depth-first search: a subtree of the
    path tree that a busy worker donated to an idle peer through a
    {!Workpool.t}. *)
type job =
  | Root  (** the whole tree, from fresh random inputs *)
  | Branch of {
      jb_stack : Concolic.branch_record array;
          (* stack entries [0..j]; every entry below [j] is marked done,
             so [j] is the solve's only candidate *)
      jb_pc : Symbolic.Constr.t option array; (* path constraint [0..j] *)
      jb_sites : (string * int) array; (* branch sites [0..j] *)
      jb_im : (int * int * Inputs.kind) list;
          (* the donor's input vector ({!Inputs.to_full_alist}): it drove
             the run that reached [j], so it satisfies the prefix *)
    }
      (** The subtree under the flipped branch [j]. The receiver
          restores the inputs and calls the unchanged {!Solve_pc.solve};
          the donor has marked [j] done in its own stack. *)

(** A worker's place in a {!Workpool.t}: the root member starts the
    search at the root, the others start idle. The counters are read
    after the search. *)
type seat = {
  seat_pool : job Workpool.t;
  seat_root : bool;
  mutable seat_taken : int; (* jobs taken from the pool *)
  mutable seat_donated : int; (* jobs it donated to peers *)
}

val seat : root:bool -> job Workpool.t -> seat

type search_ctx = {
  sc_rng : Dart_util.Prng.t; (* private randomness stream *)
  sc_im : Inputs.t; (* private input vector *)
  sc_stats : Solver.stats; (* private solver counters *)
  sc_cache : Solver.Store.t * int;
      (* solve store and this worker's id: private to a solo search,
         shared by every worker of a parallel one *)
  sc_incr : Solver.Incr.t option;
      (* per-worker incremental solving context (never shared) *)
  sc_metrics : Telemetry.metrics; (* private phase timers *)
  sc_budget : run_budget; (* this search's claim on the run budget *)
  sc_deadline : int64 option;
      (* absolute monotonic deadline ({!Telemetry.now} scale); checked
         at run boundaries, [None] = no time budget *)
  sc_should_stop : unit -> bool;
      (* polled at every run boundary; [true] drains the search (used
         for cross-worker cancellation — see {!Parallel}) *)
  sc_breaker : Solver.Breaker.t option;
      (* per-context solver circuit breaker; [None] disables it *)
  sc_seat : seat option;
      (* membership of a parallel DFS work pool; [None] for a solo
         search, which walks its whole tree itself *)
}
(** Everything mutable a single directed search touches, made explicit
    so independent searches can run concurrently on separate domains
    without sharing state (the shared store, the pooled budget and the
    work pool are the deliberate exceptions). *)

val make_ctx :
  ?seat:seat ->
  ?should_stop:(unit -> bool) ->
  ?metrics:Telemetry.metrics ->
  ?deadline:int64 ->
  ?pool:int Atomic.t ->
  ?store:Solver.Store.t * int ->
  ?incremental:bool ->
  ?use_breaker:bool ->
  ?breaker:Solver.Breaker.t ->
  seed:int ->
  max_runs:int ->
  unit ->
  search_ctx
(** Fresh context: new PRNG from [seed], empty input vector, zeroed
    solver stats. [should_stop] defaults to never; [metrics] defaults
    to a fresh record (pass one to fold preparation time measured by
    {!prepare} into the search's report); [deadline] defaults to
    unbounded. [pool] is a run pool shared with other workers, which
    [max_runs] then does not bound; without it the context gets a
    private pool of [max_runs] runs (see {!run_budget}). [store] attaches a shared solve store and this
    worker's id (default: a fresh solo store, worker 0);
    [incremental] (default true) controls the push/pop context.
    [use_breaker] (default true) creates a fresh circuit breaker;
    [breaker] overrides it with a caller-owned one (a campaign shares
    one breaker across all slices of a target). [seat] makes the search
    a member of a DFS work pool (see {!search}). *)

val deadline_of_options : options -> int64 option
(** The absolute monotonic deadline [now + time_budget_ns], or [None]
    when the options carry no time budget. Compute it once and share it
    across worker contexts so every worker stops at the same instant. *)

val expired : int64 option -> bool
(** Whether an absolute deadline (as {!deadline_of_options} returns it)
    has passed; never for [None]. The search's run-boundary check. *)

type library
(** A program under test, typechecked and lowered once, without a test
    driver: what every target of a campaign links against. *)

val lower_library :
  ?metrics:Telemetry.metrics -> ?library_sigs:Minic.Tast.fsig list -> Minic.Ast.program -> library
(** Typecheck and lower the program. [library_sigs] names its black-box
    functions ({!Minic.Typecheck.check}). When [metrics] is given, the
    elapsed wall clock is attributed to its [Lower] phase.
    @raise Minic.Typecheck.Error on a type error. *)

val library_program : library -> Ram.Instr.program
(** The lowered library without a driver: what every linked program
    records as [linked_from]. *)

val link :
  ?metrics:Telemetry.metrics -> library -> toplevel:string -> depth:int -> Ram.Instr.program
(** Synthesize the test driver for [toplevel] ({!Driver_gen.stub}),
    check it against the library ({!Minic.Typecheck.extend}) and lower
    it against the lowered library ({!Ram.Lower.extend}). The result
    shares the library's functions, strings and globals, and
    {!Machine} compiles only the driver on top of the library's
    compiled form. Its entry point is {!Driver_gen.wrapper_name}.
    [metrics] as for {!lower_library}.
    @raise Driver_gen.No_toplevel if [toplevel] is not a defined
    function. *)

val prepare :
  ?metrics:Telemetry.metrics ->
  ?library_sigs:Minic.Tast.fsig list ->
  toplevel:string ->
  depth:int ->
  Minic.Ast.program ->
  Ram.Instr.program
(** [link (lower_library ast) ~toplevel ~depth]: the program with its
    test driver, ready to search. *)

val search :
  ?resume:snapshot ->
  ?on_checkpoint:(snapshot -> unit) ->
  ?checkpoint_every:int ->
  ctx:search_ctx ->
  options:options ->
  Ram.Instr.program ->
  report
(** One directed search driven entirely by [ctx]'s mutable state:
    [options.search.seed] and [options.budget.max_runs] are ignored in
    favour of the context's PRNG and budget cell. {!run} is [search]
    over a fresh context; {!Parallel.run} calls it once per worker
    domain. Events flow into [options.telemetry.sink]; with the null
    sink the instrumentation allocates nothing.

    With a [ctx.sc_seat], the search is one member of a work pool that
    walks one path tree: before each solve it donates its shallowest
    pending branch when a peer is idle and it holds at least two; when
    its part of the tree is exhausted it takes queued jobs, and it
    reports [Complete] only once the whole pool has terminated with no
    member having lost completeness. A loss sends every member back to
    the solo meaning: random restarts against the (pooled) budget. If
    the search raises, every job it took is requeued before the
    exception propagates.

    [resume] restores a {!snapshot} into [ctx] (which must be fresh)
    and continues exactly where it was taken. [on_checkpoint] is called
    with a consistent snapshot every [checkpoint_every] runs (default
    256) and once more at the end when the verdict is partial
    ([Budget_exhausted], [Time_exhausted] or [Interrupted]); it is
    never called after [Complete] or a stop-on-first-bug verdict. *)

val run :
  ?resume:snapshot ->
  ?on_checkpoint:(snapshot -> unit) ->
  ?checkpoint_every:int ->
  ?metrics:Telemetry.metrics ->
  ?options:options ->
  Ram.Instr.program ->
  report
(** Run DART on a prepared program (fresh context honouring the
    options' seed, budget and time budget). Pass the [metrics] that
    {!prepare} timed to fold preparation into the report's phase
    totals (and the trace's). *)

val test_source :
  ?options:options ->
  ?library_sigs:Minic.Tast.fsig list ->
  toplevel:string ->
  string ->
  report
(** Parse MiniC source, prepare it with [options.search.depth], and
    run. Preparation time lands in the report's [Lower] phase. *)

val verdict_tag : verdict -> string
(** The short verdict tag of per-worker report lines and campaign
    [Slice_end] events: ["bug"], ["complete"], ["budget"], ["time"] or
    ["interrupted"]. *)

val report_to_string : report -> string
(** Byte-stable end-of-run summary (phase metrics are deliberately
    excluded: print them with {!Profile.metrics_to_string}). *)
