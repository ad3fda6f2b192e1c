(** The one renderer of where the time went: [dartc profile
    TRACE.jsonl], [dartc --metrics] and the plateau and frontier lines
    of [dartc cover --timeline] all print through this module.

    For a trace it renders the trace's {!Telemetry.summary}: event
    counts, per-phase totals (from [Phase_total]), run- and
    solve-latency histograms (rebuilt from per-event durations), the
    hottest solver sites by total query time, the per-target table for
    campaign traces (from the [Slice_end]/[Target_retired] stream), and
    the coverage plateau with the frontier sites. A pure function of
    the summary: same trace, same output. *)

val to_string : ?top:int -> Telemetry.summary -> string
(** Render the attribution: the event-count header, the solver line,
    the phase table, both histogram dumps, the [top] (default 10)
    hottest solver sites, the per-target table when the trace carries
    campaign events, then {!coverage_to_string}. *)

val metrics_to_string : Telemetry.metrics -> string
(** The phase table and both histogram dumps of {!to_string}, over a
    live metrics record ([dartc --metrics]). *)

val coverage_to_string : Telemetry.summary -> string
(** The [coverage: … plateau] line (absent when the trace has no
    [Run_end]) and the {!frontier_sites} list (absent when empty). *)

val frontier_sites : Telemetry.summary -> ((string * int) * bool * int) list
(** {!Coverage.is_frontier} user branch sites of the summary's
    [covered] — the candidates a directed search can still force. Each
    entry is [(site, missing_dir, solve_attempts)] where [missing_dir]
    is the machine direction not yet exercised ([true] = jump taken),
    ranked by solver attempts at that site (descending), i.e. by how
    hard the search is already trying: a high-attempt frontier site is
    where the search plateaued. *)
