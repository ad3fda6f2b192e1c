(** Post-hoc wall-clock attribution over a recorded trace
    ([dartc profile TRACE.jsonl]).

    Answers "where did the time go" from the trace alone, as a
    rendering of the trace's {!Telemetry.summary}: per-phase totals
    (from [Phase_total]), run- and solve-latency histograms (rebuilt
    from per-event durations), the hottest solver sites by total query
    time, and — for campaign traces — the per-target table from the
    [Slice_end]/[Target_retired] stream. A pure function of the
    summary: same trace, same output. *)

val to_string : ?top:int -> Telemetry.summary -> string
(** Render the attribution: phase table, both histogram dumps, the
    [top] (default 10) hottest solver sites, and the per-target table
    when the trace carries campaign events. *)
