(** Campaign mode: test every discoverable function of a MiniC library
    in one invocation (the paper's oSIP experiment, §4.3, as a
    first-class workflow).

    {2 Discovery}

    A campaign target is any function with a body whose parameters are
    all scalar ([int]/[char]/pointer — exactly what the generated
    driver can feed), excluding the harness's own helpers
    ({!Driver_gen.is_harness_site} is the single source of truth, so
    [__dart_*] wrappers and the [__coin] site can never appear as
    targets or in aggregate coverage denominators). Functions skipped
    for non-scalar parameters are reported with the offending type.

    {2 Scheduling}

    Targets are tested in budget slices of
    [options.campaign.per_function_runs] instrumented runs, scheduled
    in rounds: each round runs one slice for every still-active target
    (across [jobs] worker domains), then settles retirements. A target
    retires when its slice verdict is terminal ([Bug_found] /
    [Complete]), when it hits the per-target [budget.max_runs] cap, or
    as saturated after [options.campaign.retire_after] consecutive
    slices without a new branch direction. Active targets re-enter the
    next round — a budget refill — ordered by
    [options.campaign.priority]: [Frontier_first] ranks them by
    frontier-site count ({!Coverage.frontier_count}: sites with exactly
    one direction exercised) from their latest coverage, so refills flow to the functions where
    the directed search still has branches to flip.

    The library text is parsed once. Each target is prepared
    ({!Driver.prepare}: driver generation, typecheck, lowering) on its
    first slice, and its later slices reuse that program.

    Slices resume each other through in-memory {!Driver.snapshot}s:
    target results are a deterministic function of (options, target)
    alone, independent of [jobs] and of scheduling order — the same
    seed yields the same retired set, deduped crash list and aggregate
    coverage at [--jobs 1] and [--jobs 8].

    {2 Crash dedup and aggregation}

    Crashes are deduped library-wide by {!Driver.bug_key} — the same
    defect reached from two entry points is one crash, attributed to
    the first target (in declaration order) that exposed it. Aggregate
    coverage is the union of per-target coverage sites over the whole
    library.

    {2 Checkpoint/resume}

    A campaign checkpoint ([dart-campaign v3], in the {!Checkpoint}
    framing: a meta line, then one CRC-checked record block per
    finished target) records the campaign meta and the finished targets
    with their results. Resuming re-runs unfinished targets from scratch; because
    per-target results are deterministic, the resumed campaign's
    aggregate report equals the uninterrupted one's. Self-healing: with
    salvage enabled a damaged checkpoint restores its longest valid
    prefix instead of refusing. *)

type retire =
  | Bug (* slice verdict Bug_found *)
  | Complete (* directed search proved the target exhausted (within depth) *)
  | Saturated (* retire_after consecutive slices with no new direction *)
  | Budget_capped (* per-target max_runs cap reached *)
  | Quarantined of string
      (* [options.campaign.retry_limit] consecutive slice faults
         (worker exception, injected crash); the payload is the last
         fault's description. The target keeps the runs, coverage and
         bugs its successful slices earned. *)

val retire_tag : retire -> string
(** The short tag shared by the checkpoint codec, [Target_retired]
    trace events, the JSON report and the heatmap CSS classes:
    ["bug"], ["complete"], ["saturated"], ["capped"] or
    ["quarantined"]. *)

type target_result = {
  tr_name : string;
  tr_index : int; (* declaration order, 0-based *)
  tr_runs : int; (* instrumented runs over all slices *)
  tr_slices : int;
  tr_retired : retire;
  tr_coverage : (string * int * bool) list; (* sorted (fn, pc, dir) triples *)
  tr_bugs : Driver.bug list; (* distinct bugs this target exposed *)
  tr_overruns : int; (* solver deadline overruns over all slices *)
  tr_bopens : int; (* circuit-breaker opens over all slices *)
}

(** [Stopped_early reason]: {!Cancel} or the campaign time budget fired;
    the results cover the targets finished by then and [cam_unfinished]
    names the rest (a checkpoint written at that point resumes them). *)
type status = Finished | Stopped_early of string

type report = {
  cam_targets : string list; (* discovered, declaration order *)
  cam_skipped : (string * string) list; (* (function, reason), declaration order *)
  cam_results : target_result list; (* finished targets, declaration order *)
  cam_unfinished : string list; (* empty when [cam_status = Finished] *)
  cam_crashes : (string * Driver.bug) list;
      (* (target, bug) deduped by {!Driver.bug_key}, sorted by key *)
  cam_status : status;
  cam_resumed : int; (* finished targets restored from --resume *)
  cam_metrics : Telemetry.metrics;
      (* phase totals and latency histograms summed over every slice of
         the session (restored targets contribute nothing — their
         slices ran in the checkpointed process) *)
  cam_times : (string * int64) list;
      (* per-target cumulative slice wall clock this session,
         declaration order; feeds the report heatmap and [dartc
         profile]'s per-target table. Wall-clock content: excluded from
         determinism diffs, like the "phases" JSON line. *)
}

val discover : Minic.Ast.program -> string list * (string * string) list
(** [(targets, skipped)]: testable functions and the (name, reason)
    pairs rejected, both in declaration order. *)

val run :
  ?jobs:int ->
  ?options:Driver.options ->
  ?time_budget_ns:int64 ->
  ?checkpoint:string ->
  ?resume:string ->
  ?salvage:bool ->
  ?file:string ->
  ?progress:(string -> unit) ->
  string ->
  (report, string) result
(** Run a campaign over MiniC source text. [jobs] (default 1, 0 = one
    per core) bounds the worker domains; [options] carries the
    per-target budgets and the [campaign] sub-group; [time_budget_ns]
    is the campaign-wide wall clock (checked between slices and at
    every run boundary inside them); [checkpoint] persists finished
    targets after every round; [resume] restores a prior checkpoint
    (its meta — seed, depth, budgets, strategy, library digest — must
    match); [salvage] (default false) makes a corrupted or truncated
    [resume] file degrade to its longest CRC-valid prefix plus a
    progress warning instead of an [Error]. [progress] receives one
    human-readable line per round and per retirement (dartc points it
    at stderr, keeping stdout deterministic).

    Fault tolerance: a slice that escapes with an exception (worker
    crash, injected fault) does not kill the campaign — the target
    backs off for a deterministic, exponentially growing number of
    rounds and is retried; after [options.campaign.retry_limit]
    consecutive faults it retires as [Quarantined]. Status-file and
    checkpoint write failures ([Sys_error]: disk full, permissions)
    degrade to a one-time progress warning; the search continues.

    [Error] covers usage-level failures: zero targets discovered, an
    unreadable or mismatched [resume] file. Parse/typecheck errors
    raise as they do in {!Driver.test_source}.

    Observability: when [options.telemetry.sink] is enabled, each slice
    traces into a private ring replayed into the main sink at settle,
    bracketed by campaign-scope events (Target_scheduled / Slice_end /
    Target_retired, one Round_end per round), with the sink flushed per
    round and phase totals emitted at the end — so the trace order is
    deterministic (declaration order within each round) and independent
    of [jobs]. When [options.telemetry.status_path] is set, a
    {!Status} snapshot is atomically rewritten at every round boundary
    and at exit. Slices themselves never touch the main sink or the
    status file.
    @raise Invalid_argument if [jobs < 0]. *)

val aggregate_sites : report -> (string * int * bool) list
(** Union of every finished target's coverage, sorted — feed it to
    {!Cover_report.compute} over any one prepared program of the
    library for the aggregate lcov/HTML view. *)

val no_lost_targets : report -> bool
(** Ledger invariant: every discovered target appears exactly once
    across results, skipped and unfinished. The chaos soak (and its CI
    leg) asserts this — injected faults may quarantine a target but
    must never lose it. *)

val report_to_string : report -> string
(** Deterministic aggregate text report (no wall-clock content): totals,
    retirement histogram (plus a quarantine list when any target was
    quarantined), deduped crash list, aggregate coverage. *)

val to_json : report -> string
(** Machine-readable aggregate (one JSON object, 2-space indented,
    trailing newline): campaign counters, per-target results, deduped
    crashes, aggregate coverage totals. Deterministic except for the
    single ["phases"] line (wall-clock phase totals and latency
    percentiles from [cam_metrics]) — byte-diffs across runs must
    filter it, like the ["resumed"] counter. *)

(** {1 Checkpoint codec} *)

val save :
  ?fault:Dart_util.Faultsim.t ->
  path:string ->
  options:Driver.options ->
  library:string ->
  report ->
  unit
(** Atomic write ({!Dart_util.Fileio.write_atomic}) of the campaign
    checkpoint: meta derived from [options] plus
    [Digest.string library], then one record block per finished
    target. [fault] may inject an [Io_error] ({!Sys_error}). *)

val load :
  ?salvage:(string -> unit) ->
  path:string ->
  options:Driver.options ->
  library:string ->
  unit ->
  (target_result list, string) result
(** Parse and validate a checkpoint against the current campaign
    configuration ({!Checkpoint.load_framed}); [Error] names the first
    meta key that differs, or the command that resumes a single-run
    checkpoint.

    With [salvage], corruption (CRC mismatch, truncation, unparseable
    content) no longer errors: the longest valid record prefix is
    restored, and [salvage] receives one warning line describing what
    was lost. A campaign-configuration mismatch still returns [Error]
    even in salvage mode — a healthy checkpoint of a different campaign
    is not corruption. *)

val meta_line : options:Driver.options -> library:string -> string
(** The one-line campaign meta record: seed, depth, per-target and
    per-slice budgets, retire threshold, strategy and the library
    source digest — everything per-target determinism depends on.
    {!load} refuses a checkpoint whose meta line differs. *)

val to_string : options:Driver.options -> library:string -> report -> string
val of_string : string -> (string * target_result list, string) result
(** The codec itself, exposed for tests: [of_string] returns the raw
    meta line and the finished-target results; [load] adds the meta
    check. *)
