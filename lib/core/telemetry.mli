(** Structured event tracing and phase timing for the directed search.

    Every interesting step of the concolic loop — instrumented runs,
    branches, solver queries, input updates, restarts, bugs, worker
    lifecycle — can be emitted as a typed {!event} into a {!sink}.
    Four sink implementations are provided:

    - {!null}: tracing off. [enabled] is [false], so instrumented code
      guards event construction behind it and the hot path allocates
      nothing.
    - {!ring}: a bounded in-memory buffer keeping the most recent
      [capacity] events. Used both for tests and as the per-domain
      buffer of {!Parallel} workers, whose events are replayed into the
      main sink in worker order at join.
    - {!jsonl}: one JSON object per line on an output channel, the
      stable on-disk trace format that [dartc profile] and [dartc
      cover --from-trace] read back a line at a time into a
      {!summarizer}.
    - {!fold}: calls a function, e.g. a {!summarizer}'s [add], on each
      event as it is emitted, so a live summary ([dartc cover
      --timeline]) buffers nothing. It runs on the emitting domain and
      needs no lock: a main sink has one writer, since workers and
      campaign slices trace into rings replayed into it at join.

    Orthogonally, {!metrics} accumulates monotonic per-phase wall-clock
    time (execute / solve / lower / merge); a metrics record rides in
    every {!Driver.report} so bench rows and [dartc --metrics] can
    attribute where a search spent its time. *)

(** {1 Phases and events} *)

type phase =
  | Execute (* instrumented runs on the RAM machine *)
  | Solve (* solve_path_constraint: slicing, cache, solver *)
  | Lower (* driver generation, typechecking, lowering *)
  | Merge (* parallel report + trace merging at join *)

val phases : phase list
(** All four phases, declaration order. *)

val phase_to_string : phase -> string

type solve_result =
  | R_sat
  | R_unsat
  | R_unknown

type event =
  | Run_start of { run : int } (* 1-based, before the run executes *)
  | Run_end of { run : int; outcome : string; steps : int; dur_ns : int64 }
  | Branch_taken of { fn : string; pc : int; dir : bool }
  | Solve_query of {
      fn : string; (* site of the pivot branch being forced *)
      pc : int;
      result : solve_result;
      dur_ns : int64;
      cache_hit : bool; (* answered from the solve store *)
      sliced : int; (* prefix constraints dropped by independence slicing *)
    }
  | Input_update of { id : int; value : int } (* IM + IM' write *)
  | Restart of { restarts : int } (* fresh random restart of the outer loop *)
  | Bug_found of { fn : string; pc : int; fault : string; run : int }
  | Worker_spawn of { worker : int; seed : int }
  | Worker_drain of { worker : int; runs : int }
  | Worker_crash of { worker : int; reason : string; respawned : bool }
      (* a parallel worker's search raised: [reason] is the printed
         exception, [respawned] whether the supervisor restarted it
         with a fresh seed (at most once per worker slot) *)
  | Checkpoint_saved of { run : int }
      (* a search snapshot was handed to the checkpoint writer after
         that many runs *)
  | Phase_total of { phase : phase; dur_ns : int64 }
      (* summary record flushed at the end of a search / merge *)
  | Cover_point of { run : int; covered : int; elapsed_ns : int64 }
      (* emitted after each concolic run: cumulative user branch
         directions covered so far and wall clock since the search
         started. The sequence of these is the coverage-over-time
         curve [dartc cover --timeline] plots. *)
  | Target_scheduled of { target : string; round : int }
      (* campaign: a per-target budget slice is about to run *)
  | Slice_end of {
      target : string;
      round : int;
      outcome : string; (* slice verdict tag, or "failed" *)
      runs : int; (* concolic runs consumed by the slice *)
      dur_ns : int64; (* slice wall clock *)
    }
  | Target_retired of { target : string; reason : string }
      (* campaign: the target left the schedule — reason is one of
         bug / complete / saturated / capped / quarantined / failed *)
  | Round_end of { round : int; active : int; dur_ns : int64 }
      (* campaign: a scheduling round settled with [active] targets
         still live *)
  | Breaker_open of { fn : string; pc : int }
      (* the solver circuit breaker opened at a branch site: further
         queries there short-circuit to Unknown until a cooldown
         elapses *)
  | Breaker_close of { fn : string; pc : int }
      (* a half-open probe succeeded and the site's breaker closed *)

(** {1 Sinks} *)

type sink

val null : sink
(** The no-op sink: [enabled] is [false], [emit] does nothing. *)

val ring : capacity:int -> sink
(** Bounded in-memory buffer holding the most recent [capacity] events
    (older events are overwritten). Raises [Invalid_argument] when
    [capacity < 1]. *)

val jsonl : out_channel -> sink
(** Writes one {!event_to_json} line per event. The caller owns the
    channel ([flush] flushes it; closing is the caller's business). *)

val fold : (event -> unit) -> sink
(** Calls the function on every emitted event, on the emitting domain. *)

val enabled : sink -> bool
(** [false] only for {!null}: instrumentation points check this before
    constructing an event, so a disabled trace costs one branch. *)

val emit : sink -> event -> unit

val dropped : sink -> int
(** Events a full {!ring} overwrote (oldest-first) rather than keep.
    Always [0] for the other sinks. Consumers that replay a ring
    (trace merge at join) surface this instead of silently presenting a
    truncated trace as complete. *)

val events : sink -> event list
(** Buffered events, oldest first. [[]] for the other sinks. *)

val replay : sink -> into:sink -> unit
(** Re-emit every buffered event of the first sink into [into], in
    order. Used by {!Parallel} to splice per-worker buffers into the
    main trace at join. *)

val flush : sink -> unit

(** {1 JSONL codec} *)

val json_string : string -> string
(** [s] as a quoted JSON string. Quote, backslash, newline, tab and
    carriage return get their two-character escapes; other control
    bytes are written as [\u00XX]. The one JSON string escaper of the
    repo (traces, campaign reports, bench rows); {!parse_flat} decodes
    every escape it writes. *)

val hex_value : string -> int option
(** The value of a non-empty string of hex digits ([0-9a-fA-F] only: no
    sign, prefix or [_] separator), else [None]. Decodes the [\u]
    escapes of {!parse_flat} and the [%]-escapes of {!Checkpoint}. *)

(** Flat JSON values: strings, integers and booleans only, no nesting.
    The trace codec and the status-file schema ({!Status}) both write
    them with {!flat_to_json} and read them with {!parse_flat}. *)
type jval =
  | Jstr of string
  | Jint of int64
  | Jbool of bool

val flat_to_json : (string * jval) list -> string
(** One flat JSON object with the fields in list order, no trailing
    newline; {!parse_flat} reads it back field for field. *)

val event_to_json : event -> string
(** One {!flat_to_json} object. Schema (the [ev] field
    selects the variant): [run_start], [run_end], [branch], [solve],
    [input], [restart], [bug], [worker_spawn], [worker_drain],
    [worker_crash], [checkpoint], [phase], [cover], [target_scheduled],
    [slice_end], [target_retired], [round_end]. *)

val event_of_json : string -> (event, string) result
(** Inverse of {!event_to_json}, through {!decode_flat}; [Error]
    explains the first schema violation found. *)

val parse_flat : string -> ((string * jval) list, string) result
(** Parse one flat JSON object into its fields, in source order.
    [Error] explains the first syntax violation. *)

(** Typed readers over one parsed flat object. A required reader whose
    field is absent or of another type fails the decode with "missing
    string field" (integer, boolean) and the field's name. *)
type flat_reader = {
  str : string -> string;
  int : string -> int;
  i64 : string -> int64;
  bool : string -> bool;
  i64_opt : string -> int64 option; (* [None] when absent or not an integer *)
  reject : 'a. string -> 'a; (* fail the decode with this message *)
}

val decode_flat : string -> (flat_reader -> 'a) -> ('a, string) result
(** The one reader of flat objects, behind {!event_of_json} and
    {!Status.of_json}: [Error] names the first syntax violation, or the
    first missing field or rejection in the order the decoder reads. *)

(** {1 Latency histograms}

    Log2-bucketed duration histograms: cheap constant-size accumulation
    on the hot path, deterministic bucketwise merge across workers, and
    upper-bound percentile queries ("p99 of solve queries took at most
    X"). Bucket [b] covers [2^b, 2^(b+1)) nanoseconds; bucket 0 also
    absorbs 0-1ns. *)
module Hist : sig
  type t

  val create : unit -> t
  val add : t -> int64 -> unit
  (** Record one duration (negative values clamp to 0). *)

  val count : t -> int
  val sum_ns : t -> int64
  val max_ns : t -> int64
  val mean_ns : t -> int64

  val merge : into:t -> t -> unit
  (** Bucketwise addition — commutative and associative, so merging
      per-worker histograms in any join order yields identical bucket
      counts and percentiles. *)

  val percentile : t -> float -> int64
  (** Upper bound of the first bucket at which the cumulative count
      reaches the given percent of samples, clamped to [max_ns]. [0] on
      an empty histogram. Deterministic given the bucket counts. *)

  val p50 : t -> int64
  val p90 : t -> int64
  val p99 : t -> int64

  val buckets : t -> (int64 * int64 * int) list
  (** Non-empty buckets as [(lo_ns, hi_ns, count)] with [hi] exclusive,
      ascending. *)
end

val ns_to_string : int64 -> string
(** Compact human rendering of a duration ("743ns", "1.2us", "3.45ms",
    "2.10s"). *)

(** {1 Phase metrics} *)

type metrics = {
  mutable execute_ns : int64;
  mutable solve_ns : int64;
  mutable lower_ns : int64;
  mutable merge_ns : int64;
  solve_hist : Hist.t;
      (* latency of every [Solve_pc] query, cache hits included — the
         same durations the [Solve_query] trace events carry *)
  run_hist : Hist.t; (* latency of every instrumented (or random) run *)
}

val create_metrics : unit -> metrics

(** Adds phase totals and merges both histograms, so the parallel and
    campaign joins aggregate latency distributions for free. *)
val add_metrics : into:metrics -> metrics -> unit
val add_phase : metrics -> phase -> int64 -> unit
val total_ns : metrics -> int64
val phase_ns : metrics -> phase -> int64

val timed : metrics -> phase -> (unit -> 'a) -> 'a
(** Run the thunk, attributing its wall-clock time to the phase. *)

val now : unit -> int64
(** Monotonic clock, nanoseconds (CLOCK_MONOTONIC via bechamel's
    noalloc stub). Differences are meaningful; absolute values are
    not. *)

val emit_phase_totals : sink -> metrics -> unit
(** One {!Phase_total} event per phase, in declaration order. *)

(** {1 Trace summaries ([profile], [cover --from-trace])} *)

type site_agg = {
  s_count : int;
  s_sat : int;
  s_unsat : int;
  s_unknown : int;
  s_hits : int;
  s_sliced : int;
  s_ns : int64;
}

type target_row = {
  tg_name : string;
  tg_slices : int; (* Slice_end events *)
  tg_runs : int; (* summed Slice_end runs *)
  tg_ns : int64; (* summed slice wall clock *)
  tg_retired : string option; (* Target_retired reason; None = never retired *)
}

type summary = {
  total_events : int;
  runs : int; (* Run_start events *)
  branches : int;
      (* Branch_taken events at sites of the program under test. Driver
         wrapper ([__dart_*]) and synthetic pointer-coin ([__coin])
         sites are counted separately in [driver_branches], keeping
         this consistent with what {!Coverage.compute} (and
         [Driver.report.branches_covered]) count. *)
  driver_branches : int; (* Branch_taken at driver-internal/coin sites *)
  solves : int; (* all Solve_query events *)
  solve_hits : int; (* ... of which answered from the cache *)
  solve_sat : int;
  solve_unsat : int;
  solve_unknown : int;
  inputs_updated : int;
  restarts : int;
  bugs : int;
  workers : int; (* Worker_spawn events *)
  crashes : int; (* Worker_crash events *)
  phase_ns : (phase * int64) list; (* summed Phase_total, all four phases *)
  run_hist : Hist.t; (* Run_end durations *)
  solve_hist : Hist.t; (* Solve_query durations *)
  sites : ((string * int) * site_agg) list;
      (* per solver site, sorted by s_ns descending, site ascending on
         ties *)
  targets : target_row list;
      (* campaign traces: one row per target seen in Slice_end or
         Target_retired, sorted by tg_ns descending, first-seen order
         on ties; empty for single-target traces *)
  rounds : int; (* Round_end events *)
  timeline : cover_point list;
      (* Cover_point events, trace order. In a multi-worker trace they
         appear in worker-replay order: each worker's segment is
         monotone, the concatenation is not a single global curve. *)
  covered : (string * int * bool) list;
      (* distinct (fn, pc, dir) user branch directions across every
         Branch_taken event, sorted — the shape of
         [Driver.report.coverage_sites], and of the same size as
         [Driver.report.branches_covered] for a trace of the same
         search *)
  plateau : (int * int) option;
      (* [(runs, stale_runs)]: the number of Run_end events, and how
         many of those runs came after the run that first added a
         direction to [covered]. In a campaign or multi-worker trace
         both count every run of every target and worker. [None] when
         the trace has no Run_end. *)
}

and cover_point = {
  cp_run : int;
  cp_covered : int; (* cumulative branch directions after that run *)
  cp_ns : int64; (* elapsed since the search started *)
}

val summarizer : unit -> (event -> unit) * (unit -> summary)
(** [(add, finish)]: an online fold. [add] takes events in stream
    order; [finish] sorts what they added into a {!summary}. Memory
    grows with sites, targets, directions and cover points, not events.
    [dartc profile] and [dartc cover] render a summary made this way. *)

val summarize : event list -> summary
(** {!summarizer} over a list. *)

(** {1 Configuration} *)

type config = {
  sink : sink;
  worker_buffer : int;
      (* per-domain ring capacity used by Parallel when tracing a
         multi-worker search *)
  status_path : string option;
      (* when set, the search atomically rewrites this file with a
         {!Status} snapshot every 100 runs (a campaign: every round) *)
}

val default_config : config
(** Null sink, 2^20-event worker buffers, no status file. *)

val with_sink : sink -> config
